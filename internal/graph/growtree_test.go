package graph

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

// heapView returns a copy of v that routes searches to the 4-ary heap, as a
// view with a degenerate price range would.
func heapView(v *CostView) *CostView {
	h := *v
	h.delta, h.invDelta, h.nb = 0, 0, 0
	return &h
}

// checkGrowTree grows t from src on view in the given query order and
// requires every answer — distance bit for bit, path edge for edge — to be
// the complete tree's, then grows it to completion and requires the trees
// to be equal everywhere. Every reachable node must have settled exactly
// once across the calls.
func checkGrowTree(t *testing.T, what string, tree *GrowTree, s *Scratch, view *CostView, src NodeID, order []NodeID) {
	t.Helper()
	want := view.DijkstraWith(NewScratch(), src)
	tree.Reset(view, src)
	settled := 0
	for _, v := range order {
		got, n := tree.To(s, v)
		settled += n
		if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) {
			t.Fatalf("%s: grown to %d: dist %v, complete tree %v", what, v, got.Dist[v], want.Dist[v])
		}
		gotPath, gotOK := got.AppendPathTo(nil, v)
		wantPath, wantOK := want.AppendPathTo(nil, v)
		if gotOK != wantOK || !slices.Equal(gotPath, wantPath) {
			t.Fatalf("%s: grown to %d: path %v (%v), complete tree %v (%v)", what, v, gotPath, gotOK, wantPath, wantOK)
		}
	}
	got, n := tree.To(s, None)
	settled += n
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: grown to completion differs from the complete tree", what)
	}
	reachable := 0
	for _, d := range want.Dist {
		if !math.IsInf(d, 1) {
			reachable++
		}
	}
	if settled != reachable {
		t.Fatalf("%s: %d nodes settled over all calls, %d reachable", what, settled, reachable)
	}
	if _, again := tree.To(s, None); again != 0 {
		t.Fatalf("%s: a complete tree settled %d more nodes", what, again)
	}
}

// TestGrowTreeMatchesDijkstra: random query orders on bucket-queue and heap
// views, with and without bans, all on one GrowTree and one Scratch so every
// case also exercises the sparse reset behind a tree of a different size.
func TestGrowTreeMatchesDijkstra(t *testing.T) {
	var tree GrowTree
	s := NewScratch()
	partial, bannedSrc := 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, opts, _ := randomLayeredCase(rng)
		n := g.NumNodes()
		view := g.CompileView(opts)
		if view.delta == 0 {
			t.Fatalf("seed %d: corpus view has no bucket tuning", seed)
		}
		if seed%2 == 0 {
			view = heapView(view)
		}
		src := NodeID(rng.Intn(n))
		if view.NodeBanned(src) {
			bannedSrc++
		}
		order := make([]NodeID, rng.Intn(n))
		for i := range order {
			order[i] = NodeID(rng.Intn(n))
		}
		if seed%3 == 0 {
			order = nil // completion asked of a fresh tree: the bucket-queue sweep
		}
		checkGrowTree(t, fmt.Sprintf("seed %d", seed), &tree, s, view, src, order)

		// One query on a fresh tree must stop short of the whole graph often
		// enough to be worth having.
		tree.Reset(view, src)
		if _, settled := tree.To(s, NodeID(rng.Intn(n))); settled < n/2 {
			partial++
		}
	}
	if partial < 100 || bannedSrc == 0 {
		t.Fatalf("corpus too tame: %d of 300 single queries stopped early, %d banned sources", partial, bannedSrc)
	}
}

// TestGrowTreeZeroPriceTies: with zero-price links a node can be queued
// behind the last settled one at the very same distance; its entry is final
// all the same, and the parent it holds is the complete tree's.
func TestGrowTreeZeroPriceTies(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 4, 1, 1)
	g.MustAddEdge(4, 1, 0, 1) // 1 is reached from 4 at no cost, and 1 < 4
	g.MustAddEdge(1, 2, 0, 1)
	g.MustAddEdge(4, 3, 2, 1)
	var tree GrowTree
	for _, order := range [][]NodeID{{4, 1, 2, 3}, {1}, {2, 4}, {3, 0}} {
		checkGrowTree(t, "zero-price", &tree, NewScratch(), g.CompileView(nil), 0, order)
	}
}

// TestGrowTreeZeroAllocs: a warm tree re-roots and grows, in steps or all at
// once, without allocating.
func TestGrowTreeZeroAllocs(t *testing.T) {
	g := benchGraph(300, 6)
	view := g.CompileView(nil)
	s := NewScratch()
	var tree GrowTree
	run := func() {
		tree.Reset(view, 7)
		tree.To(s, 150)
		tree.To(s, None)
		tree.Reset(view, 9)
		tree.To(s, None)
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm grown trees allocate %.1f per run, want 0", allocs)
	}
}

// TestFreshScratchBucketAllocs pins first-use cost: a process that drops its
// pooled scratches at every GC pays it again and again. The first hundred
// trees on a fresh Scratch used to cost some 700 allocations, nearly all of
// them bucket slices grown one append at a time.
func TestFreshScratchBucketAllocs(t *testing.T) {
	g := benchGraph(500, 6)
	view := g.CompileView(nil)
	if view.delta == 0 {
		t.Fatal("bench view has no bucket tuning")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := NewScratch()
	for i := 0; i < 100; i++ {
		view.DijkstraWith(s, NodeID(5*i))
	}
	runtime.ReadMemStats(&after)
	if allocs := after.Mallocs - before.Mallocs; allocs > 128 {
		t.Fatalf("the first 100 trees on a fresh scratch made %d allocations, want at most 128", allocs)
	} else {
		t.Logf("first 100 trees on a fresh scratch: %d allocations", allocs)
	}
}

// TestGrowTreeResume is the property behind completing a kept tree on the
// bucket queue: a tree stopped 0–3 times at random nodes and then grown to
// the end holds, at every node, the distance bits, parent edge and
// predecessor of a fresh complete search — on bucket-queue views and on
// views with no bucket width, over graphs with zero-price links,
// unreachable nodes and banned sources.
func TestGrowTreeResume(t *testing.T) {
	var tree GrowTree
	s := NewScratch()
	var resumed, heaped, zeroPrice, unreachable, bannedSrc int
	for seed := int64(1); seed <= 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := New(n)
		for e := rng.Intn(3 * n); e > 0; e-- {
			a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if a == b {
				continue
			}
			price := 1 + rng.Float64()*9
			if rng.Intn(4) == 0 {
				price = 0
				zeroPrice++
			}
			g.MustAddEdge(a, b, price, float64(rng.Intn(3)))
		}
		src := NodeID(rng.Intn(n))
		opts := &CostOptions{MinCapacity: float64(rng.Intn(2))}
		if rng.Intn(8) == 0 {
			opts.BannedNodes = map[NodeID]bool{src: true}
			bannedSrc++
		}
		view := g.CompileView(opts)
		if seed%3 == 0 {
			view = heapView(view)
		}
		if view.delta == 0 {
			heaped++
		}
		want := view.DijkstraWith(NewScratch(), src).clone()
		if heapWant := heapView(view).DijkstraWith(NewScratch(), src); !reflect.DeepEqual(heapWant, want) {
			t.Fatalf("seed %d: the heap and the bucket queue disagree on a complete tree", seed)
		}
		for _, d := range want.Dist {
			if math.IsInf(d, 1) {
				unreachable++
				break
			}
		}

		tree.Reset(view, src)
		stops := rng.Intn(4)
		for range stops {
			tree.To(s, NodeID(rng.Intn(n)))
		}
		if len(tree.frontier) > 0 && tree.bound >= 0 && view.delta > 0 {
			resumed++
		}
		got, _ := tree.To(s, None)
		for v := range n {
			if math.Float64bits(got.Dist[v]) != math.Float64bits(want.Dist[v]) ||
				got.parent[v] != want.parent[v] || got.prev[v] != want.prev[v] {
				t.Fatalf("seed %d, %d stops: node %d holds (%v, edge %d, prev %d), a fresh search (%v, edge %d, prev %d)",
					seed, stops, v, got.Dist[v], got.parent[v], got.prev[v], want.Dist[v], want.parent[v], want.prev[v])
			}
		}
	}
	if resumed < 100 || heaped < 100 || zeroPrice == 0 || unreachable < 50 || bannedSrc == 0 {
		t.Fatalf("corpus too tame: %d resumed on the bucket queue, %d on the heap, %d zero-price links, %d graphs with an unreachable node, %d banned sources",
			resumed, heaped, zeroPrice, unreachable, bannedSrc)
	}
}
