package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// TestPrivateTreesRecycled drives 60 embeds through one scratch — unbanned
// and banned MBBE runs, with and without a store attached, and BBE runs —
// recycling it between them as releaseScratch does, and requires each
// Result to equal the same embed on a scratch nothing has used: the JSON of
// the solution, the cost bit for bit, the stats. After every recycle the
// retained trees and views are scribbled over, so a run that read anything
// from recycled graph storage without writing it first would show.
func TestPrivateTreesRecycled(t *testing.T) {
	ctx := context.Background()
	recycled := newPooledScratch()
	privateTrees := 0
	embed := func(sc *pooledScratch, p *Problem, opts Options) (*Result, error) {
		defer sc.recycle()
		res, err := embedOn(ctx, p, opts, sc)
		if sc == recycled {
			privateTrees += sc.mem.npathTrees
		}
		return res, err
	}
	for i := 0; i < 60; i++ {
		rng := rand.New(rand.NewSource(int64(300 + i)))
		p := randomProblem(rng, 40+20*(i%3), 6, 5) // sizes vary, so storage is resliced both ways
		opts := MBBEOptions()
		if i%5 == 4 {
			opts = BBEOptions()
		}
		if i%2 == 1 {
			// A banned run: around what the unbanned embed of the same
			// instance used, as a backup embed is.
			if primary, err := Embed(p, opts); err == nil {
				opts.BannedEdges = make(map[graph.EdgeID]bool)
				primary.Solution.VisitEdges(func(e graph.EdgeID) { opts.BannedEdges[e] = true })
			}
		}
		if i%4 >= 2 {
			// With a store the unbanned run's trees are shared and only a
			// banned run keeps private ones, beside a shared search view.
			p.Ledger = network.NewLedger(p.Net)
			opts.PathCache = graph.NewTreeCache(0)
		}
		what := fmt.Sprintf("embed %d (%s, %d banned, store %t)", i, opts.Label, len(opts.BannedEdges), opts.PathCache != nil)

		got, gotErr := embed(recycled, p, opts)
		scribbleGraphStorage(recycled.mem)
		shared := opts.PathCache != nil && len(opts.BannedEdges) == 0
		opts.PathCache = nil
		want, wantErr := embed(newPooledScratch(), p, opts)
		if shared && gotErr == nil && wantErr == nil {
			// The store's trees cost the run nothing; its own are counted.
			got.Stats, want.Stats = searchStats(got.Stats), searchStats(want.Stats)
		}

		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: err %v on the recycled scratch, %v on a fresh one", what, gotErr, wantErr)
			}
			continue
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(wantJSON) {
			t.Fatalf("%s: result differs on the recycled scratch\ngot  %s\nwant %s", what, gotJSON, wantJSON)
		}
		if math.Float64bits(got.Cost.VNFCost) != math.Float64bits(want.Cost.VNFCost) ||
			math.Float64bits(got.Cost.LinkCost) != math.Float64bits(want.Cost.LinkCost) {
			t.Fatalf("%s: cost %+v, fresh scratch %+v", what, got.Cost, want.Cost)
		}
	}
	if privateTrees == 0 {
		t.Fatal("vacuous: no run kept a private tree")
	}
}

// treeFixture readies an MBBE run on a private view of the benchmark
// instance, the state treeFor's private path starts from.
func treeFixture(tb testing.TB, sc *pooledScratch) *embedder {
	tb.Helper()
	e := newEmbedder(context.Background(), benchProblem(tb), MBBEOptions(), sc)
	if e.sharedTrees {
		tb.Fatal("fixture run shares its trees")
	}
	return e
}

// TestEmbedPrivateRunTreeAllocs pins what the run-scoped storage is for:
// once a scratch has held a run's trees, a later run's view compile and
// private Dijkstra trees — grown part of the way, then all of it —
// allocate nothing.
func TestEmbedPrivateRunTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	sc := newPooledScratch()
	e := treeFixture(t, sc)
	fixture := *e // recycle zeroes the embedder
	const sources = 16
	run := func() {
		sc.recycle()
		*e = fixture
		e.pathView = e.privateView(&e.costOpts)
		e.treeOf = sc.mem.idx.alloc(e.p.Net.G.NumNodes())
		for src := graph.NodeID(0); src < sources; src++ {
			if tree := e.treeFor(src, e.p.Dst); tree.Src != src || e.treeFor(src, graph.None) != tree {
				t.Fatalf("treeFor(%d) is not memoized", src)
			}
		}
	}
	run() // grow the storage
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a steady-state private view and %d private trees allocated %.0f objects, want 0", sources, allocs)
	}
}

// TestTreeForSurvivesScratchReuse pins the rule that lets treeFor borrow the
// run's own graph.Scratch: a private tree lives in the arena, suspended
// frontier included, never on the scratch, so every later search on that
// scratch — another tree, a hop search, the layered kernel — leaves what it
// has settled intact and what it has not resumable.
func TestTreeForSurvivesScratchReuse(t *testing.T) {
	sc := newPooledScratch()
	defer sc.recycle()
	e := treeFixture(t, sc)
	p := e.p
	const a, b = graph.NodeID(3), graph.NodeID(11)
	want := e.pathView.Dijkstra(a)
	held := e.treeFor(a, b)
	if e.stats.PathTreeNodes == 0 || e.stats.PathTreeNodes >= p.Net.G.NumNodes() {
		t.Fatalf("growing the tree of %d as far as %d settled %d of %d nodes", a, b, e.stats.PathTreeNodes, p.Net.G.NumNodes())
	}
	if held.Dist[b] != want.Dist[b] {
		t.Fatalf("partly grown tree puts %d at %v, the complete tree at %v", b, held.Dist[b], want.Dist[b])
	}

	e.treeFor(b, graph.None)
	e.pathView.DijkstraWith(sc.Scratch, b)
	e.pathView.MinHopPathWith(sc.Scratch, b, p.Dst)
	e.pathView.LayeredDijkstraWith(sc.Scratch, &graph.LayeredQuery{
		Rent:   [][]float64{p.Net.Rents(p.SFC.Layers[0].VNFs[0])},
		Seeds:  []graph.LayeredSeed{{Node: b}},
		Admit:  func(int, graph.NodeID) bool { return true },
		Target: p.Dst,
	})

	if e.treeFor(a, graph.None) != held {
		t.Fatal("treeFor rooted a source twice in one run")
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatal("a tree treeFor returned did not grow into the complete tree after later searches on the run's scratch")
	}
}
