package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// embedPerLeaf is Embed with every leaf closed by a tree of its own, rooted
// at the leaf's end node: the closure the tree rooted at the destination
// replaced, and must agree with.
func embedPerLeaf(p *Problem, opts Options) (*Result, error) {
	return embedReference(p, opts, func(e *embedder) { e.perLeafClosure = true })
}

// hybridSFC draws a DAG-SFC of two or three layers whose last one is
// parallel, so that the embed ends in the closure loop and not in a terminal
// layered run.
func hybridSFC(rng *rand.Rand, kinds int) sfc.DAGSFC {
	vnfs := rng.Perm(kinds)
	var layers [][]network.VNFID
	take := func(width int) {
		layer := make([]network.VNFID, width)
		for i := range layer {
			layer[i] = network.VNFID(vnfs[i] + 1)
		}
		layers, vnfs = append(layers, layer), vnfs[width:]
	}
	for n := 1 + rng.Intn(2); n > 0; n-- {
		take(1 + rng.Intn(3))
	}
	take(2 + rng.Intn(2))
	return fromWidths(layers)
}

// tieNetwork draws a substrate whose link prices are 0, 1 or 2: most node
// pairs have several cheapest paths, a third of the links are free, and
// every path sum is exact, so two closures that break the ties differently
// still owe the same total to the bit.
func tieNetwork(rng *rand.Rand, nodes, kinds int) *network.Network {
	g := graph.New(nodes)
	// linked holds the pairs joined so far: HasEdge between AddEdges would
	// rebuild the CSR every time.
	linked := map[[2]graph.NodeID]bool{}
	for v := 1; v < nodes; v++ {
		a := graph.NodeID(rng.Intn(v))
		linked[[2]graph.NodeID{a, graph.NodeID(v)}] = true
		g.MustAddEdge(a, graph.NodeID(v), float64(rng.Intn(3)), 100)
	}
	for i := 0; i < 2*nodes; i++ {
		a, b := graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes))
		if pair := [2]graph.NodeID{min(a, b), max(a, b)}; a != b && !linked[pair] {
			linked[pair] = true
			g.MustAddEdge(a, b, float64(rng.Intn(3)), 100)
		}
	}
	net := network.New(g, network.Catalog{N: kinds})
	for f := network.VNFID(1); f <= net.Catalog.Merger(); f++ {
		net.MustAddInstance(graph.NodeID(rng.Intn(nodes)), f, 1, 100) // every category is hosted somewhere
		for v := 0; v < nodes; v++ {
			if rng.Intn(3) == 0 && !net.HasVNF(graph.NodeID(v), f) {
				net.MustAddInstance(graph.NodeID(v), f, float64(1+rng.Intn(4)), 100)
			}
		}
	}
	return net
}

// TestClosureFromDestinationMatchesPerLeaf runs a seeded corpus of hybrid
// DAG-SFCs both ways — leaves closed off the one tree rooted at the
// destination, and by a tree per leaf — through the cases where the two
// could part: cost ties and free links, a banned destination, a destination
// that is itself a leaf end (an empty tail), a delay bound that sends tails
// to the fewest-hop fallback, and capacity so tight that candidates fall to
// the screens. Same refusal or same total cost to the bit, and a solution
// the validator accepts. Every run closes all its leaves: BBE, or MBBE under
// a delay bound (an MBBE run without one closes only what its best-first last
// layer needs). The Dijkstra work is compared over the corpus, not per
// instance: a lone leaf whose own tree (it served its pair's inner paths)
// already stands a few nodes short of the destination is closed cheaper from
// its side, and small substrates have such instances.
func TestClosureFromDestinationMatchesPerLeaf(t *testing.T) {
	type scenario struct {
		what string
		p    *Problem
		opts Options
	}
	var corpus []scenario
	add := func(what string, p *Problem, opts Options) {
		corpus = append(corpus, scenario{fmt.Sprintf("%s (#%d)", what, len(corpus)), p, opts})
	}
	const nodes, kinds = 120, 8
	cfg := netgen.Default()
	cfg.Nodes, cfg.VNFKinds, cfg.Connectivity = nodes, kinds, 4
	cfg.LinkPriceFluct = 0.9 // cheapest paths wander: the fewest-hop path is often another
	// MBBE under a bound that never binds still screens and closes every leaf.
	loose := MBBEOptions()
	loose.MaxDelay = 1e9
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		p := &Problem{Net: netgen.MustGenerate(cfg, rng), SFC: hybridSFC(rng, kinds), Rate: 1, Size: 1,
			Src: graph.NodeID(rng.Intn(nodes)), Dst: graph.NodeID(rng.Intn(nodes))}
		add("random", p, BBEOptions())

		ties := *p
		ties.Net = tieNetwork(rng, nodes, kinds)
		add("ties", &ties, BBEOptions())

		banned := loose
		banned.BannedNodes = map[graph.NodeID]bool{p.Dst: true}
		add("dst banned", p, banned)

		// The destination moved onto the winning leaf's end node: its tail is
		// empty, and the tree rooted there is the tree of a leaf end.
		if res, err := Embed(p, loose); err == nil {
			q := *p
			q.Dst = res.Solution.Layers[len(res.Solution.Layers)-1].EndNode()
			add("dst a leaf end", &q, loose)
		}

		for bound := 8.0; bound <= 16; bound += 2 {
			delayed := MBBEOptions()
			delayed.MaxDelay, delayed.Delay = bound, DelayParams{DefaultProcDelay: 1, HopDelay: 1, MergerDelay: 1}
			add("delay bound", p, delayed)
		}
	}
	// Tight capacity: one ledger filling up under heavy flows, every later
	// embed screened against what the earlier ones took.
	rng := rand.New(rand.NewSource(7))
	cfg.LinkCapacity, cfg.InstanceCapacity = 30, 30
	net := netgen.MustGenerate(cfg, rng)
	ledger := network.NewLedger(net)
	for flow := 0; flow < 40; flow++ {
		p := &Problem{Net: net, Ledger: ledger, SFC: hybridSFC(rng, kinds), Rate: 12, Size: 1,
			Src: graph.NodeID(rng.Intn(nodes)), Dst: graph.NodeID(rng.Intn(nodes))}
		add("tight capacity", p, loose)
	}

	solved, refused, hopTails, rejections, fromDst, perLeaf := 0, 0, 0, 0, 0, 0
	for _, sc := range corpus {
		p := sc.p
		got, gotErr := Embed(p, sc.opts)
		want, wantErr := embedPerLeaf(p, sc.opts)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: err %v from the destination, %v per leaf", sc.what, gotErr, wantErr)
			}
			refused++
			continue
		}
		solved++
		if math.Float64bits(got.Cost.Total()) != math.Float64bits(want.Cost.Total()) {
			t.Fatalf("%s: cost %v from the destination, %v per leaf", sc.what, got.Cost.Total(), want.Cost.Total())
		}
		if err := Validate(p, got.Solution); err != nil {
			t.Fatalf("%s: %v", sc.what, err)
		}
		if got.Stats.ClosureLeaves == 0 || got.Stats.ClosureLeaves != want.Stats.ClosureLeaves {
			t.Fatalf("%s: %d leaves closed from the destination, %d per leaf", sc.what, got.Stats.ClosureLeaves, want.Stats.ClosureLeaves)
		}
		fromDst += got.Stats.PathTreeNodes
		perLeaf += want.Stats.PathTreeNodes
		rejections += got.Stats.CapacityRejections
		tail := got.Solution.TailPath
		if cheapest, ok := dijkstra(p.Net.G, tail.From, nil).PathTo(p.Dst); ok && sc.opts.MaxDelay > 0 && tail.Len() < cheapest.Len() {
			hopTails++
		}
		if p.Ledger != nil {
			if _, err := Commit(p, got.Solution); err != nil {
				t.Fatalf("%s: commit: %v", sc.what, err)
			}
		}
	}
	t.Logf("%d solved, %d refused alike, %d fewest-hop tails, %d capacity rejections, %d tree nodes settled from the destination, %d per leaf",
		solved, refused, hopTails, rejections, fromDst, perLeaf)
	if solved == 0 || refused == 0 || hopTails == 0 || rejections == 0 {
		t.Fatal("vacuous: the corpus lost a case it was drawn for")
	}
	if fromDst >= perLeaf {
		t.Fatalf("%d tree nodes settled from the destination, %d per leaf: the shared tree saves nothing", fromDst, perLeaf)
	}
}

// TestClosureTreeNodesPinned pins the Dijkstra work of the width-3
// benchmark instance: what the run settles with its leaves closed off the
// destination's tree — complete before the first layer, since the search
// ranks by it, so all 500 nodes and nothing more at the closure — that the
// count repeats exactly from run to run, and what the reference that screens
// the last layer as any other settles to close all 16 of its leaves where the
// best-first layer closes one.
func TestClosureTreeNodesPinned(t *testing.T) {
	p := benchProblem(t)
	for i := 0; i < 2; i++ {
		res, err := Embed(p, MBBEOptions())
		if err != nil {
			t.Fatal(err)
		}
		if s := res.Stats; s.PathTreeNodes != 828 || s.ClosureLeaves != 1 || s.ClosureTreeNodes != 500 {
			t.Fatalf("run %d: %d tree nodes settled, %d of them closing %d leaves; want 828, 500, 1",
				i, s.PathTreeNodes, s.ClosureTreeNodes, s.ClosureLeaves)
		}
	}
	ref, err := embedReference(p, MBBEOptions(), func(e *embedder) { e.eager = true })
	if err != nil {
		t.Fatal(err)
	}
	if s := ref.Stats; s.PathTreeNodes != 1093 || s.ClosureLeaves != 16 || s.ClosureTreeNodes != 500 {
		t.Fatalf("reference: %d tree nodes settled, %d of them closing %d leaves; want 1093, 500, 16",
			s.PathTreeNodes, s.ClosureTreeNodes, s.ClosureLeaves)
	}
}

// TestSharedPathWindows builds a parallel layer's extensions twice over and
// checks what the per-build path memo promises: extensions that route a VNF
// over the same meta-path hold the same window, every path in it runs the
// way its extension says (a window reversed by minCostPathFrom once per
// walk, never once per reader), and nothing a later build or the closure
// walks afterwards disturbs what an earlier extension reads.
func TestSharedPathWindows(t *testing.T) {
	p := benchProblem(t)
	sc := acquireScratch()
	defer releaseScratch(sc)
	e := newEmbedder(context.Background(), p, MBBEOptions(), sc)
	e.avgLink = p.Net.AvgLinkPrice()
	spec := e.layerSpecs()[0]
	if !spec.Merger {
		t.Fatalf("layer 1 of the benchmark instance is not parallel: %+v", spec)
	}
	g := p.Net.G
	check := func(exts []*extension, start graph.NodeID) (shared int) {
		t.Helper()
		owner := map[*graph.EdgeID][]graph.EdgeID{}
		for _, ext := range exts {
			for i, node := range ext.nodes {
				inter, inner := ext.interPaths[i], ext.innerPaths[i]
				if inter.From != start || inter.To(g) != node || inter.Validate(g) != nil {
					t.Fatalf("inter-layer path %v does not run %d→%d", inter, start, node)
				}
				if inner.From != node || inner.To(g) != ext.endNode || inner.Validate(g) != nil {
					t.Fatalf("inner-layer path %v does not run %d→%d", inner, node, ext.endNode)
				}
				for _, path := range []graph.Path{inter, inner} {
					if len(path.Edges) == 0 {
						continue
					}
					if first, seen := owner[&path.Edges[0]]; seen {
						shared++
						if !slices.Equal(first, path.Edges) {
							t.Fatalf("two readers of one window see %v and %v", first, path.Edges)
						}
					} else {
						owner[&path.Edges[0]] = slices.Clone(path.Edges)
					}
				}
			}
		}
		return shared
	}
	first := allCandidates(e, spec, p.Src)
	if len(first) == 0 {
		t.Fatal("no extensions")
	}
	if check(first, p.Src) == 0 {
		t.Fatal("vacuous: no two extensions share a path window")
	}
	type frozen struct{ inter, inner [][]graph.EdgeID }
	before := make([]frozen, len(first))
	for i, ext := range first {
		for k := range ext.nodes {
			before[i].inter = append(before[i].inter, slices.Clone(ext.interPaths[k].Edges))
			before[i].inner = append(before[i].inner, slices.Clone(ext.innerPaths[k].Edges))
		}
	}
	// More walks and reversals on the same trees: another start's build, whose
	// mergers overlap the first's, and a closure of every end node.
	other := first[0].endNode
	check(allCandidates(e, spec, other), other)
	for _, ext := range first {
		if _, ok := e.tailPath(ext.endNode); !ok {
			t.Fatalf("no tail from %d", ext.endNode)
		}
	}
	check(first, p.Src)
	for i, ext := range first {
		for k := range ext.nodes {
			if !slices.Equal(ext.interPaths[k].Edges, before[i].inter[k]) || !slices.Equal(ext.innerPaths[k].Edges, before[i].inner[k]) {
				t.Fatalf("extension %d, VNF %d: paths changed under later walks", i, k)
			}
		}
	}
}
