package core

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// scribbleGraphStorage overwrites what a recycled arena hands the next run
// whole rather than zeroed — every retained Dijkstra tree, both private
// views and the residual rows — with those of an unrelated line graph, so a run that trusted
// recycled contents, or a Result that aliased them, shows. A tree is
// scribbled the way another run would leave it: grown to completion from the
// far end of the line, every entry written and the frontier drained.
func scribbleGraphStorage(m *searchMem) {
	sc := graph.NewScratch()
	for _, t := range m.pathTrees {
		if n := len(t.Dist); n > 0 {
			t.Reset(lineGraph(n).CompileView(nil), graph.NodeID(n-1))
			t.To(sc, graph.None)
		}
	}
	for i := range m.views {
		m.resBuf = lineGraph(3).CompileViewInto(&m.views[i], nil, m.resBuf)
	}
	for i := range m.resBuf {
		m.resBuf[i] = -1
	}
	for i := range m.instRes {
		m.instRes[i] = -1
	}
}

func lineGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(graph.NodeID(v-1), graph.NodeID(v), 1e9, 1)
	}
	return g
}

// TestResultSurvivesArenaReuse pins the ownership rule the arena rests on:
// a Result is a heap copy, so scribbling over the recycled tree storage and
// 60 later embeds of other instances carving the same slabs must not change
// a solution handed out earlier.
func TestResultSurvivesArenaReuse(t *testing.T) {
	delayBounded := MBBEOptions()
	delayBounded.MaxDelay = 1e6 // never binding, but switches the hop variants on
	modes := []struct {
		name string
		opts Options
	}{
		{"mbbe", MBBEOptions()},
		{"bbe", BBEOptions()},
		{"mbbe+delay", delayBounded},
	}
	for _, mode := range modes {
		sc := newPooledScratch()
		embed := func(p *Problem) (*Result, error) {
			defer sc.recycle()
			return embedOn(context.Background(), p, mode.opts, sc)
		}
		p := randomProblem(rand.New(rand.NewSource(7)), 60, 6, 6)
		res, err := embed(p)
		if err != nil {
			t.Fatalf("%s: %v", mode.name, err)
		}
		before, err := json.Marshal(res.Solution)
		if err != nil {
			t.Fatal(err)
		}
		scribbleGraphStorage(sc.mem)
		for i := 0; i < 60; i++ {
			q := randomProblem(rand.New(rand.NewSource(int64(100+i))), 60, 6, 6)
			_, _ = embed(q) // infeasible draws still churn the arena
		}
		after, err := json.Marshal(res.Solution)
		if err != nil {
			t.Fatal(err)
		}
		if string(before) != string(after) {
			t.Fatalf("%s: solution changed under later embeds\nbefore %s\nafter  %s", mode.name, before, after)
		}
		if err := Validate(p, res.Solution); err != nil {
			t.Fatalf("%s: solution no longer validates: %v", mode.name, err)
		}
		p.Ledger = network.NewLedger(p.Net)
		if _, err := Commit(p, res.Solution); err != nil {
			t.Fatalf("%s: solution no longer commits: %v", mode.name, err)
		}
	}
}

// buildExtensionRef is the map-based extension pricing the sort-merge
// version replaced, kept as the reference the differential test below
// compares against.
func buildExtensionRef(p *Problem, spec LayerSpec, nodes []graph.NodeID, endNode graph.NodeID,
	interPaths, innerPaths []graph.Path) *extension {

	ext := &extension{endNode: endNode, nodes: nodes, interPaths: interPaths, innerPaths: innerPaths}
	for i, node := range nodes {
		inst, ok := p.Net.Instance(node, spec.VNFs[i])
		if !ok {
			return nil
		}
		ext.instUse = append(ext.instUse, InstanceUseKey{node, spec.VNFs[i]})
		ext.localCost += inst.Price * p.Size
	}
	if spec.Merger {
		inst, ok := p.Net.Instance(endNode, p.Net.Catalog.Merger())
		if !ok {
			return nil
		}
		ext.instUse = append(ext.instUse, InstanceUseKey{endNode, p.Net.Catalog.Merger()})
		ext.localCost += inst.Price * p.Size
	}
	interUnion := make(map[graph.EdgeID]bool)
	for _, path := range interPaths {
		for _, e := range path.Edges {
			interUnion[e] = true
		}
	}
	innerCount := make(map[graph.EdgeID]int)
	for _, path := range innerPaths {
		for _, e := range path.Edges {
			innerCount[e]++
		}
	}
	for e := range interUnion {
		c := 1 + innerCount[e]
		delete(innerCount, e)
		ext.edgeUse = append(ext.edgeUse, edgeUse{edge: e, count: c})
	}
	for e, c := range innerCount {
		ext.edgeUse = append(ext.edgeUse, edgeUse{edge: e, count: c})
	}
	sort.Slice(ext.edgeUse, func(i, j int) bool { return ext.edgeUse[i].edge < ext.edgeUse[j].edge })
	for _, u := range ext.edgeUse {
		ext.localCost += p.Net.G.Edge(u.edge).Price * float64(u.count) * p.Size
	}
	return ext
}

// TestBuildExtensionMatchesMapReference drives both pricings over random
// path multisets — empty paths, links repeated within a path, links shared
// between the inter and inner groups — and requires the same reuse counts
// and the same cost to the last bit.
func TestBuildExtensionMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 40, 8, 6)
	p.Size = 1.7 // a non-trivial multiplier, so summation order would show
	numEdges := p.Net.G.NumEdges()
	randomPaths := func(n int) []graph.Path {
		paths := make([]graph.Path, n)
		pool := 1 + rng.Intn(8) // a small pool forces sharing and repeats
		base := rng.Intn(numEdges)
		for i := range paths {
			paths[i].From = graph.NodeID(rng.Intn(p.Net.G.NumNodes()))
			for hops := rng.Intn(5); hops > 0; hops-- {
				paths[i].Edges = append(paths[i].Edges, graph.EdgeID((base+rng.Intn(pool))%numEdges))
			}
		}
		return paths
	}
	m := &searchMem{}
	shared := 0
	for _, spec := range p.LayerSpecs() {
		for trial := 0; trial < 300; trial++ {
			nodes := make([]graph.NodeID, len(spec.VNFs))
			for i, f := range spec.VNFs {
				hosts := p.Net.NodesWith(f)
				nodes[i] = hosts[rng.Intn(len(hosts))]
			}
			endNode := nodes[0]
			var inner []graph.Path
			if spec.Merger {
				hosts := p.Net.NodesWith(p.Net.Catalog.Merger())
				endNode = hosts[rng.Intn(len(hosts))]
				inner = randomPaths(len(nodes))
			}
			inter := randomPaths(len(nodes))
			want := buildExtensionRef(p, spec, nodes, endNode, inter, inner)
			got := buildExtension(m, p, spec, nodes, endNode, inter, inner)
			if want == nil || got == nil {
				t.Fatalf("layer %d trial %d: nil extension (ref %v, got %v)", spec.Index, trial, want, got)
			}
			if len(want.edgeUse) != len(got.edgeUse) {
				t.Fatalf("layer %d trial %d: edgeUse %v, want %v", spec.Index, trial, got.edgeUse, want.edgeUse)
			}
			for i := range want.edgeUse {
				if want.edgeUse[i] != got.edgeUse[i] {
					t.Fatalf("layer %d trial %d: edgeUse %v, want %v", spec.Index, trial, got.edgeUse, want.edgeUse)
				}
				if want.edgeUse[i].count > 1 {
					shared++
				}
			}
			if !reflect.DeepEqual(want.instUse, got.instUse) {
				t.Fatalf("layer %d trial %d: instUse %v, want %v", spec.Index, trial, got.instUse, want.instUse)
			}
			if math.Float64bits(want.localCost) != math.Float64bits(got.localCost) {
				t.Fatalf("layer %d trial %d: localCost %v, want %v", spec.Index, trial, got.localCost, want.localCost)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no trial produced a reused link; the generator lost its point")
	}
}

// feasibleAfterRef is the map-based capacity check feasibleAfter replaced.
func feasibleAfterRef(p *Problem, ledger *network.Ledger, ss *subSolution, ext *extension) bool {
	counted := make(map[InstanceUseKey]int, len(ext.instUse))
	for _, key := range ext.instUse {
		counted[key]++
	}
	for key, n := range counted {
		demand := float64(n+ss.chainInstanceUse(key)) * p.Rate
		if ledger.InstanceResidual(key.Node, key.VNF) < demand-1e-9 {
			return false
		}
	}
	for _, u := range ext.edgeUse {
		demand := float64(u.count+ss.chainEdgeUse(u.edge)) * p.Rate
		if ledger.EdgeResidual(u.edge) < demand-1e-9 {
			return false
		}
	}
	return true
}

// TestFeasibleAfterMatchesMapReference checks the map-free capacity
// screening against the reference under tight capacity, with instance keys
// duplicated within an extension and along the parent chain.
func TestFeasibleAfterMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := lineFixture() // every instance and link has capacity 10
	p.Rate = 3         // so the fourth use of anything overflows
	ledger := network.NewLedger(p.Net)
	res := readResiduals(ledger, nil, nil)
	keys := []InstanceUseKey{{1, 1}, {2, 2}, {1, 3}, {3, 3}, {2, 4}}
	randomExt := func() *extension {
		ext := &extension{}
		for n := rng.Intn(4); n > 0; n-- {
			ext.instUse = append(ext.instUse, keys[rng.Intn(len(keys))])
		}
		for e := 0; e < p.Net.G.NumEdges(); e++ {
			if c := rng.Intn(3); c > 0 {
				ext.edgeUse = append(ext.edgeUse, edgeUse{edge: graph.EdgeID(e), count: c})
			}
		}
		return ext
	}
	outcomes := map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		chain := &subSolution{}
		for depth := rng.Intn(3); depth > 0; depth-- {
			chain = &subSolution{parent: chain, ext: randomExt()}
		}
		ext := randomExt()
		want := feasibleAfterRef(p, ledger, chain, ext)
		if got := feasibleAfter(p.Rate, &res, chain, ext); got != want {
			t.Fatalf("trial %d: feasibleAfter = %v, reference %v (instUse %v, edgeUse %v)",
				trial, got, want, ext.instUse, ext.edgeUse)
		}
		outcomes[want]++
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Fatalf("capacity not tight enough to see both outcomes: %v", outcomes)
	}
}

// TestEmbedAllocatesItsResult is the allocation budget of a whole embed,
// the counterpart of graph's TestDijkstraWithZeroAllocs for the layers above
// it: once the arena has grown to the instance, a warm MBBE run on a problem
// with a ledger allocates exactly what it returns — not its candidates, its
// views, its Dijkstra trees, its search options or its embedder. That is 8
// objects: the Result; the Solution, its layer slice and the one block each
// of nodes, paths and edges that assemble copies them into; and the Usage's
// instance and edge rows. It holds for a hybrid SFC, for a chain of
// single-VNF layers (one layered run) and for a banned run (a backup).
func TestEmbedAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const want = 8
	hybrid := benchProblem(t)
	hybrid.Ledger = network.NewLedger(hybrid.Net)
	serial := *hybrid
	serial.SFC = sfc.FromChain(hybrid.SFC.Sequence())
	primary, err := EmbedMBBE(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	banned := MBBEOptions()
	banned.BannedEdges = map[graph.EdgeID]bool{}
	primary.Solution.VisitEdges(func(e graph.EdgeID) { banned.BannedEdges[e] = true })
	for _, c := range []struct {
		name string
		p    *Problem
		opts Options
	}{
		{"hybrid", hybrid, MBBEOptions()},
		{"serial", &serial, MBBEOptions()},
		{"banned", hybrid, banned},
	} {
		if _, err := Embed(c.p, c.opts); err != nil { // grow the arena
			t.Fatalf("%s: %v", c.name, err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := Embed(c.p, c.opts); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("%s: a warm Embed allocated %v objects per run, want %d", c.name, allocs, want)
		}
	}
}

// TestReleaseDropsOversizedArena pins the pooling cap: an arena grown past
// searchMemRetainBytes — in its slabs or in its run-scoped tree storage —
// is replaced on release instead of being pooled, while a right-sized one
// is kept and merely rewound.
func TestReleaseDropsOversizedArena(t *testing.T) {
	small, huge, treeful := newPooledScratch(), newPooledScratch(), newPooledScratch()
	small.mem.idx.alloc(10)
	small.mem.newTree(lineGraph(10).CompileView(nil), 0)
	huge.mem.idx.alloc(searchMemRetainBytes/4 + 1) // int32 elements
	// A grown tree pins 48 B per node.
	treeful.mem.newTree(lineGraph(searchMemRetainBytes/48+1).CompileView(nil), 0)
	kept := small.mem
	small.recycle()
	huge.recycle()
	treeful.recycle()
	if small.mem != kept || kept.idx.off != 0 || kept.npathTrees != 0 || len(kept.pathTrees) != 1 {
		t.Fatal("right-sized arena was not kept and rewound")
	}
	for name, ps := range map[string]*pooledScratch{"slabs": huge, "trees": treeful} {
		if got := ps.mem.bytes(); got != 0 {
			t.Fatalf("arena with oversized %s still pins %d bytes after release", name, got)
		}
	}
}

// TestArenaCountsAndRewindsRowsAndMemo keeps the retention gauge honest
// about what a parallel-layer run adds to the arena beside its slabs — the
// two residual rows and the two path-memo tables — and checks that recycling
// leaves no path pinned in a memo and its stamps starting from zero.
func TestArenaCountsAndRewindsRowsAndMemo(t *testing.T) {
	sc := newPooledScratch()
	p := benchProblem(t)
	if _, err := embedOn(context.Background(), p, MBBEOptions(), sc); err != nil {
		t.Fatal(err)
	}
	m, n := sc.mem, p.Net.G.NumNodes()
	if len(m.instRes) != (p.Net.Catalog.N+2)*n || len(m.resBuf) != p.Net.G.NumEdges() {
		t.Fatalf("residual rows of %d and %d entries", len(m.instRes), len(m.resBuf))
	}
	if m.interMemo.build == 0 || m.innerMemo.build == 0 {
		t.Fatal("vacuous: the run built no parallel layer")
	}
	counted := m.bytes()
	for _, s := range m.slabs() {
		counted -= s.bytes()
	}
	for i := range m.views {
		counted -= m.views[i].MemBytes()
	}
	for _, tree := range m.pathTrees {
		counted -= tree.MemBytes()
	}
	if want := 8*(len(m.instRes)+len(m.resBuf)) + 2*(4+24)*n; counted < want {
		t.Fatalf("bytes() counts %d for the rows and memo tables, which pin at least %d", counted, want)
	}
	sc.recycle()
	for name, pm := range map[string]*pathMemo{"inter": &m.interMemo, "inner": &m.innerMemo} {
		if pm.build != 0 || slices.ContainsFunc(pm.stamp, func(s uint32) bool { return s != 0 }) ||
			slices.ContainsFunc(pm.choices, func(c []graph.Path) bool { return c != nil }) {
			t.Fatalf("%s-layer memo not rewound by recycle", name)
		}
	}
}
