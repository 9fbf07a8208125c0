package core

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
)

// scribbleGraphStorage overwrites what a recycled arena hands the next run
// whole rather than zeroed — the storage of both tree stores, both views and
// the residual rows — with those of an unrelated line graph of the run's n
// nodes, so a run that trusted recycled contents, or a Result that aliased
// them, shows. A tree is scribbled the way another run would leave it: grown
// to completion, every entry written and the frontier drained.
func scribbleGraphStorage(m *searchMem, n int) {
	sc := graph.NewScratch()
	for _, store := range []*graph.TreeStore{&m.store, &m.private} {
		store.Bind(lineGraph(n), nil, nil)
		for src := graph.NodeID(0); int(src) < n; src++ {
			t, _, _ := store.Tree(src)
			t.To(sc, graph.None)
		}
		store.Forget()
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
		before := mustMarshal(t, res.Solution)
		scribbleGraphStorage(sc.mem, 60)
		for i := 0; i < 60; i++ {
			q := randomProblem(rand.New(rand.NewSource(int64(100+i))), 60, 6, 6)
			_, _ = embed(q) // infeasible draws still churn the arena
		}
		if after := mustMarshal(t, res.Solution); string(before) != string(after) {
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

// TestSolutionWindowsCapped pins the other half of assemble's contract: the
// Solution's slices are windows of shared blocks (its paths one, its edge
// and node ids another), so every window must be capped to its length. An
// append to any of them — a layer's Nodes, an InterPaths or InnerPaths list,
// a path's Edges, the tail's — must reallocate, leaving the encoding of the
// solution byte for byte as it was. It holds for a hybrid SFC, a six-layer
// chain, a banned run (a backup) and a hand-built chain of zero-length
// paths, whose nil and empty Edges must survive as null and [].
func TestSolutionWindowsCapped(t *testing.T) {
	embedded := func(p *Problem, opts Options) *Solution {
		res, err := Embed(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.Solution
	}
	solutions := map[string]*Solution{}
	for _, c := range fixedCostCases(t) {
		if c.name == "hybrid" || c.name == "banned" {
			solutions[c.name] = embedded(c.p, c.opts)
		}
	}
	solutions["six-layer chain"] = embedded(serialBenchProblem(t), MBBEOptions())
	if n := len(solutions["six-layer chain"].Layers); n != 6 {
		t.Fatalf("the chain has %d layers, want 6", n)
	}
	// Layer 1 is parallel: one nil and one empty inter path, one empty
	// inner path. Layer 2 sits where layer 1 ends, and so does the
	// destination.
	root := &subSolution{}
	first := &subSolution{parent: root, layer: 1, ext: &extension{
		endNode:    2,
		nodes:      []graph.NodeID{0, 1},
		interPaths: []graph.Path{{From: 0}, {From: 0, Edges: []graph.EdgeID{0}}},
		innerPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{1}}, {From: 1, Edges: []graph.EdgeID{}}},
	}}
	second := &subSolution{parent: first, layer: 2, ext: &extension{
		endNode:    2,
		nodes:      []graph.NodeID{2},
		interPaths: []graph.Path{{From: 2, Edges: []graph.EdgeID{}}},
	}}
	zero := assemble(second, 2, graph.Path{From: 2, Edges: []graph.EdgeID{}})
	solutions["zero-length paths"] = zero
	if zero.Layers[0].InterPaths[0].Edges != nil || zero.Layers[0].InnerPaths[1].Edges == nil ||
		zero.Layers[1].InterPaths[0].Edges == nil || zero.TailPath.Edges == nil {
		t.Fatalf("assemble lost a nil or an empty Edges: %+v", zero)
	}
	encoded := string(mustMarshal(t, zero))
	for _, want := range []string{`"Edges":null`, `"Edges":[]`, `"InnerPaths":null`} {
		if !strings.Contains(encoded, want) {
			t.Fatalf("zero-length paths encode without %s: %s", want, encoded)
		}
	}

	for name, s := range solutions {
		want := string(mustMarshal(t, s))
		appended := func(what string) {
			if got := string(mustMarshal(t, s)); got != want {
				t.Fatalf("%s: an append to %s reached a neighbouring window\nbefore %s\nafter  %s", name, what, want, got)
			}
		}
		for l := range s.Layers {
			le := &s.Layers[l]
			_ = append(le.Nodes, -1)
			appended(fmt.Sprintf("layer %d's Nodes", l+1))
			for kind, paths := range map[string][]graph.Path{"InterPaths": le.InterPaths, "InnerPaths": le.InnerPaths} {
				_ = append(paths, graph.Path{From: -1, Edges: []graph.EdgeID{-1}})
				appended(fmt.Sprintf("layer %d's %s", l+1, kind))
				for i := range paths {
					_ = append(paths[i].Edges, -1)
					appended(fmt.Sprintf("layer %d's %s[%d].Edges", l+1, kind, i))
				}
			}
		}
		_ = append(s.TailPath.Edges, -1)
		appended("TailPath.Edges")
	}
}

// mustMarshal is json.Marshal(v), failing t on an error.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
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
				hosts := hostsOf(p.Net, f)
				nodes[i] = hosts[rng.Intn(len(hosts))]
			}
			endNode := nodes[0]
			var inner []graph.Path
			if spec.Merger {
				hosts := hostsOf(p.Net, p.Net.Catalog.Merger())
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

// TestNodesByKeyIsTheSortPrefix: each list nodesByKey fills is the prefix of
// a stable sort by key of the nodes serving its category — discovery order
// for a nil key — on random available sets and random keys with ties,
// infinities and NaNs, for caps below, at and past the tree's size.
func TestNodesByKeyIsTheSortPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vnfs := []network.VNFID{1, 2, 3}
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		tree := &SearchTree{mem: &searchMem{}}
		key := make([][]float64, len(vnfs))
		for i := range key {
			key[i] = make([]float64, n)
			for v := range key[i] {
				switch rng.Intn(10) {
				case 0:
					key[i][v] = math.Inf(1)
				case 1:
					key[i][v] = math.NaN()
				default:
					key[i][v] = float64(rng.Intn(6)) // ties aplenty
				}
			}
		}
		for v := 0; v < n; v++ {
			tn := &TreeNode{Node: graph.NodeID(v)}
			for _, f := range vnfs {
				if rng.Intn(2) == 0 {
					tn.Available = append(tn.Available, f)
				}
			}
			tree.nodes = append(tree.nodes, tn)
		}
		byKey := func(i int, tn *TreeNode) float64 { return key[i][tn.Node] }
		lists := make([][]*TreeNode, len(vnfs))
		for _, k := range []int{1, max(1, n-1), n, n + 1} {
			for _, keyed := range []bool{true, false} {
				if keyed {
					tree.nodesByKey(lists, vnfs, k, byKey)
				} else {
					tree.nodesByKey(lists, vnfs, k, nil)
				}
				for i, f := range vnfs {
					want := slices.DeleteFunc(slices.Clone(tree.nodes), func(tn *TreeNode) bool { return !slices.Contains(tn.Available, f) })
					if keyed {
						slices.SortStableFunc(want, func(a, b *TreeNode) int { return cmp.Compare(byKey(i, a), byKey(i, b)) })
					}
					if k < len(want) {
						want = want[:k]
					}
					if !slices.Equal(lists[i], want) {
						t.Fatalf("trial %d, k=%d of %d, keyed %v, list %d: got %v, want %v", trial, k, n, keyed, i, nodeIDs(lists[i]), nodeIDs(want))
					}
				}
			}
		}
	}
}

func nodeIDs(nodes []*TreeNode) []graph.NodeID {
	ids := make([]graph.NodeID, len(nodes))
	for i, tn := range nodes {
		ids[i] = tn.Node
	}
	return ids
}

// TestEmbedAllocatesItsResult is the allocation budget of a whole embed,
// the counterpart of graph's TestDijkstraWithZeroAllocs for the layers above
// it: once the arena has grown to the instance, a warm MBBE run on a problem
// with a ledger allocates exactly what it returns — not its candidates, its
// views, its Dijkstra trees, its search options, its embedder or the reuse
// counts it was validated with. That is 5 objects: the Result, the
// Solution, its layer slice, the path block, and the one id block that
// assemble copies the edge ids and node ids into. It holds for a hybrid SFC,
// for a chain of single-VNF layers (one layered run), for a banned run (a
// backup), for a delay-bounded run, whose fewest-hop paths are walked into
// the arena too, and with another flow committed and released before each
// embed. A run without a ledger reads a fresh one and roots its trees
// afresh: 7, for the hybrid and for a six-layer chain. One layer's
// candidate generation costs 2, and BBE, which enumerates tree paths, reads
// 440 under a ceiling of 448.
func TestEmbedAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	type loop struct {
		name    string
		want    float64 // at most, when ceiling
		ceiling bool
		op      func()
	}
	embed := func(p *Problem, opts Options) func() {
		return func() {
			if _, err := Embed(p, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	var loops []loop
	for _, c := range fixedCostCases(t) {
		l := loop{name: c.name, want: 5, op: embed(c.p, c.opts)}
		if c.churn != nil {
			run := l.op
			l.op = func() { c.churn(); run() }
		}
		loops = append(loops, l)
	}
	cold := benchProblem(t)
	loops = append(loops,
		loop{name: "ledgerless", want: 7, op: embed(cold, MBBEOptions())},
		loop{name: "ledgerless serial", want: 7, op: embed(serialBenchProblem(t), MBBEOptions())},
		loop{name: "ledgerless bbe", want: 448, ceiling: true, op: embed(cold, BBEOptions())},
		loop{name: "one layer's extensions", want: 2, op: func() {
			if firstLayerExtensions(cold) == 0 {
				t.Fatal("no extensions")
			}
		}},
	)
	for _, l := range loops {
		l.op() // grow the arena
		allocs := testing.AllocsPerRun(20, l.op)
		if l.ceiling && allocs > l.want || !l.ceiling && allocs != l.want {
			t.Errorf("%s: %v objects per run, want %v (a ceiling: %v)", l.name, allocs, l.want, l.ceiling)
		}
	}
}

// fixedCostCase is one embed of fixedCostCases.
type fixedCostCase struct {
	name string
	p    *Problem
	opts Options
	// churn, when set, is run before each embed: another flow commits and
	// releases on the ledger, as a server's does between admissions.
	churn func()
}

// fixedCostCases are the shapes of a warm embed on a ledger: the Table
// 2-scale hybrid, its chain, the hybrid with its first placement's links
// banned, the hybrid under a delay bound that binds, and the hybrid on a
// ledger that moves between any two embeds.
func fixedCostCases(t *testing.T) []fixedCostCase {
	t.Helper()
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
	delayed := MBBEOptions()
	delayed.MaxDelay = EvaluateDelay(hybrid, primary.Solution, DefaultDelayParams()) // feasible, and binding
	return []fixedCostCase{
		{name: "hybrid", p: hybrid, opts: MBBEOptions()},
		{name: "serial", p: &serial, opts: MBBEOptions()},
		{name: "banned", p: hybrid, opts: banned},
		{name: "delay", p: hybrid, opts: delayed},
		{name: "churn", p: hybrid, opts: MBBEOptions(), churn: churnOn(t, hybrid)},
	}
}

// churnOn returns a step that commits and releases, on p's ledger, the
// placement of p's reverse flow: the ledger's epoch moves, and its residuals
// come back.
func churnOn(tb testing.TB, p *Problem) func() {
	tb.Helper()
	other := *p
	other.Src, other.Dst = p.Dst, p.Src
	placed, err := EmbedMBBE(&other)
	if err != nil {
		tb.Fatal(err)
	}
	return func() {
		if _, err := Commit(&other, placed.Solution); err != nil {
			tb.Fatal(err)
		}
		if err := Release(&other, placed.Solution); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestEmbedReadsOnlyItsCategoriesRows fills every instance row of an arena
// with NaN before each embed: a run reads only the rows of its SFC's
// categories and the merger's off the ledger, so it must never meet one, and
// each Result must equal, bit for bit, that of a run on a clean arena.
func TestEmbedReadsOnlyItsCategoriesRows(t *testing.T) {
	for _, c := range fixedCostCases(t) {
		clean, stale := newPooledScratch(), newPooledScratch()
		stale.mem.instRes = make([]float64, len(c.p.Ledger.InstanceResiduals(nil)))
		for round := 0; round < 2; round++ {
			if c.churn != nil {
				c.churn()
			}
			want, err := embedOn(context.Background(), c.p, c.opts, clean)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			clean.recycle()
			for i := range stale.mem.instRes {
				stale.mem.instRes[i] = math.NaN()
			}
			got, err := embedOn(context.Background(), c.p, c.opts, stale)
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, round %d: a run over NaN rows returned %+v, %v; on a clean arena %+v", c.name, round, got, err, want)
			}
			stale.recycle()
		}
	}
}

// TestReleaseDropsOversizedArena pins the pooling cap: an arena grown past
// graph.MaxPooledBytes — in its slabs or in its run-scoped tree storage —
// is replaced on release instead of being pooled, and so is a graph.Scratch
// whose layered rows alone pass it, while right-sized ones are kept and
// merely rewound.
func TestReleaseDropsOversizedArena(t *testing.T) {
	small, huge, treeful, layered := newPooledScratch(), newPooledScratch(), newPooledScratch(), newPooledScratch()
	small.mem.idx.alloc(10)
	small.mem.private.Bind(lineGraph(10), nil, nil)
	small.mem.private.Tree(0)
	huge.mem.idx.alloc(graph.MaxPooledBytes/4 + 1) // int32 elements
	// A grown tree pins 24 B per node.
	treeful.mem.private.Bind(lineGraph(graph.MaxPooledBytes/24+1), nil, nil)
	treeful.mem.private.Tree(0)
	// A layered search pins 32 B per state, (k+1)·n states: 9.6 MB for a
	// nine-layer serial run on 30 000 nodes.
	n, k := 30000, 9
	rent := make([]float64, n)
	for v := range rent {
		rent[v] = graph.Inf
	}
	rents := make([][]float64, k)
	for j := range rents {
		rents[j] = rent
	}
	lineGraph(n).CompileView(nil).LayeredDijkstraWith(layered.Scratch, &graph.LayeredQuery{
		Rent: rents, Seeds: []graph.LayeredSeed{{Node: 0}}, Target: graph.None, MaxExits: 1})
	kept, keptScratch, grown := small.mem, small.Scratch, layered.Scratch
	small.recycle()
	huge.recycle()
	treeful.recycle()
	layered.recycle()
	if small.mem != kept || kept.idx.off != 0 || kept.private.MemBytes() == 0 {
		t.Fatal("right-sized arena was not kept and rewound")
	}
	if small.Scratch != keptScratch {
		t.Fatal("right-sized scratch was not kept")
	}
	for name, ps := range map[string]*pooledScratch{"slabs": huge, "trees": treeful} {
		if got := ps.mem.bytes(); got != 0 {
			t.Fatalf("arena with oversized %s still pins %d bytes after release", name, got)
		}
	}
	if layered.Scratch == grown {
		t.Fatal("scratch with oversized layered rows was kept after release")
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
	counted -= m.private.MemBytes() + m.store.MemBytes()
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

// slabPeakBytes bounds the slabs of an arena that has served the paper
// regime (500 nodes, width-3 layers): 640 KiB measured, plus 10 %.
const slabPeakBytes = (640 << 10) * 11 / 10

// TestArenaKeepsEveryRootAtPaperScale: at paper scale an arena keeps a tree
// for every root beside its slabs. One arena embeds towards every node of
// the 500-node substrate in turn — random sources, width-3 layers, nothing
// committed, so the view stays bound. After every recycle it pins no more
// than graph.MaxPooledBytes, and its slabs no more than slabPeakBytes: what
// a run carves follows its search, not the substrate. At the end it has
// evicted no tree and holds one for each of the 500 roots.
func TestArenaKeepsEveryRootAtPaperScale(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := benchProblem(t)
	base.Ledger = network.NewLedger(base.Net)
	sc := newPooledScratch()
	arena := sc.mem
	evictions := storeCounter(telemetry.MetricPathCacheEvictions)
	n := base.Net.G.NumNodes()
	for v := range n {
		p := *base
		p.Src, p.Dst = graph.NodeID(rng.Intn(n)), graph.NodeID(v)
		embedIn(sc, &p, MBBEOptions())
		if sc.mem != arena {
			t.Fatalf("embed %d: the arena was replaced whole", v)
		}
		if got := arena.bytes(); got > graph.MaxPooledBytes {
			t.Fatalf("embed %d: the pooled arena pins %d bytes, past the %d cap", v, got, graph.MaxPooledBytes)
		}
		slabs := 0
		for _, s := range arena.slabs() {
			slabs += s.bytes()
		}
		if slabs > slabPeakBytes {
			t.Fatalf("embed %d: the arena's slabs pin %d bytes, past the %d measured in this regime", v, slabs, slabPeakBytes)
		}
	}
	if got := storeCounter(telemetry.MetricPathCacheEvictions) - evictions; got != 0 {
		t.Fatalf("the store evicted %v trees at paper scale", got)
	}
	for v := range n {
		if _, hit, _ := arena.store.Tree(graph.NodeID(v)); !hit {
			t.Fatalf("no tree kept for root %d of %d", v, n)
		}
	}
}

// TestArenaStoreStaysInsideItsCap churns one arena through ledger-backed
// embeds on a 1000-node substrate, too large for a tree of every root to
// fit — random endpoints, every accepted flow committed and the oldest
// released — until its tree store has filled what the slabs leave of
// graph.MaxPooledBytes. After every recycle the arena pins no more than the
// cap, and it is the same arena: the store sheds its least recently used
// trees instead of the arena being replaced whole.
func TestArenaStoreStaysInsideItsCap(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	base := randomProblem(rand.New(rand.NewSource(1)), 1000, 10, 5)
	live := network.NewLedger(base.Net)
	sc := newPooledScratch()
	arena := sc.mem
	evictions := storeCounter(telemetry.MetricPathCacheEvictions)
	var standing []*Problem
	var placed []*Solution
	n := base.Net.G.NumNodes()
	for i := 0; i < 200; i++ {
		p := *base
		p.Ledger = live
		p.Src, p.Dst = graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		run := embedIn(sc, &p, MBBEOptions())
		if sc.mem != arena {
			t.Fatalf("embed %d: the arena was replaced whole", i)
		}
		if got := arena.bytes(); got > graph.MaxPooledBytes {
			t.Fatalf("embed %d: the pooled arena pins %d bytes, past the %d cap", i, got, graph.MaxPooledBytes)
		}
		if run.err != nil {
			continue
		}
		if _, err := Commit(&p, run.res.Solution); err != nil {
			t.Fatal(err)
		}
		standing, placed = append(standing, &p), append(placed, run.res.Solution)
		if len(standing) > 8 {
			if err := Release(standing[0], placed[0]); err != nil {
				t.Fatal(err)
			}
			standing, placed = standing[1:], placed[1:]
		}
	}
	if storeCounter(telemetry.MetricPathCacheEvictions) == evictions {
		t.Fatal("vacuous: the store never evicted a tree")
	}
	if got := arena.store.MemBytes(); got < graph.MaxPooledBytes/2 {
		t.Fatalf("vacuous: the store holds %d bytes, not near the cap", got)
	}
}
