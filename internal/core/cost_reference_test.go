package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
)

// refBreakdown is the CostBreakdown the map-based pricing produced.
type refBreakdown struct {
	VNFCost     float64
	LinkCost    float64
	InstanceUse map[InstanceUseKey]int
	EdgeUse     map[graph.EdgeID]int
}

// refComputeCost is ComputeCost as it stood before the map-free rewrite,
// kept verbatim as the reference the pooled-scratch evaluation is compared
// against: same costs to the bit, same reuse counts.
func refComputeCost(p *Problem, s *Solution) (refBreakdown, error) {
	cb := refBreakdown{
		InstanceUse: make(map[InstanceUseKey]int),
		EdgeUse:     make(map[graph.EdgeID]int),
	}
	g := p.Net.G
	merger := p.Net.Catalog.Merger()

	rent := func(node graph.NodeID, vnf network.VNFID) error {
		inst, ok := p.Net.Instance(node, vnf)
		if !ok {
			return fmt.Errorf("core: no instance of f(%d) on node %d", vnf, node)
		}
		cb.InstanceUse[InstanceUseKey{node, vnf}]++
		cb.VNFCost += inst.Price * p.Size
		return nil
	}
	// useEdges accumulates in ascending edge order: float addition is not
	// associative, so summing in map-iteration order would make the total
	// differ in the last ULP between runs, breaking bit-for-bit
	// reproducibility of the experiments.
	useEdges := func(edges map[graph.EdgeID]int) {
		ids := make([]graph.EdgeID, 0, len(edges))
		for e := range edges {
			ids = append(ids, e)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, e := range ids {
			count := edges[e]
			cb.EdgeUse[e] += count
			cb.LinkCost += g.Edge(e).Price * float64(count) * p.Size
		}
	}

	for li, le := range s.Layers {
		spec := p.SFC.Layers[li]
		for i, node := range le.Nodes {
			if err := rent(node, spec.VNFs[i]); err != nil {
				return cb, err
			}
		}
		if spec.Parallel() {
			if err := rent(le.MergerNode, merger); err != nil {
				return cb, err
			}
		}
		// Inter-layer meta-paths (P1): multicast — within this layer each
		// link is paid at most once (eq. 9).
		interUnion := make(map[graph.EdgeID]int)
		for _, path := range le.InterPaths {
			for _, e := range path.Edges {
				interUnion[e] = 1
			}
		}
		useEdges(interUnion)
		// Inner-layer meta-paths (P2): every traversal is paid (eq. 10).
		innerCount := make(map[graph.EdgeID]int)
		for _, path := range le.InnerPaths {
			for _, e := range path.Edges {
				innerCount[e]++
			}
		}
		useEdges(innerCount)
	}
	// Tail path: the inter-layer meta-path of the stretched layer L_{ω+1};
	// a single path, so multicast dedup degenerates to per-link counting
	// within the path.
	tail := make(map[graph.EdgeID]int)
	for _, e := range s.TailPath.Edges {
		tail[e] = 1
	}
	useEdges(tail)
	return cb, nil
}

// refMaps renders a breakdown's usage as the maps the reference produces.
func refMaps(cb CostBreakdown) refBreakdown {
	out := refBreakdown{
		VNFCost: cb.VNFCost, LinkCost: cb.LinkCost,
		InstanceUse: make(map[InstanceUseKey]int),
		EdgeUse:     make(map[graph.EdgeID]int),
	}
	for _, u := range cb.Usage.Instances {
		out.InstanceUse[u.InstanceUseKey] += u.Count
	}
	for _, u := range cb.Usage.Edges {
		out.EdgeUse[u.Edge] += u.Count
	}
	return out
}

// refReserve applies the reference breakdown to a ledger the way Commit
// used to: rate × α per instance and per link.
func refReserve(t *testing.T, ledger *network.Ledger, rate float64, cb refBreakdown) {
	t.Helper()
	for key, alpha := range cb.InstanceUse {
		if err := ledger.ReserveInstance(key.Node, key.VNF, float64(alpha)*rate); err != nil {
			t.Fatal(err)
		}
	}
	for e, alpha := range cb.EdgeUse {
		if err := ledger.ReserveEdge(e, float64(alpha)*rate); err != nil {
			t.Fatal(err)
		}
	}
}

func refRelease(ledger *network.Ledger, rate float64, cb refBreakdown) {
	for key, alpha := range cb.InstanceUse {
		ledger.ReleaseInstance(key.Node, key.VNF, float64(alpha)*rate)
	}
	for e, alpha := range cb.EdgeUse {
		ledger.ReleaseEdge(e, float64(alpha)*rate)
	}
}

// refCapacityErrors lists every capacity violation the reference check
// would report (it reported whichever its map iteration met first).
func refCapacityErrors(p *Problem, cb refBreakdown) []string {
	ledger := p.ledgerOrFresh()
	var out []string
	for key, alpha := range cb.InstanceUse {
		demand := float64(alpha) * p.Rate
		if ledger.InstanceResidual(key.Node, key.VNF) < demand-1e-9 {
			out = append(out, fmt.Errorf("core: instance f(%d) on node %d over capacity: need %v, residual %v",
				key.VNF, key.Node, demand, ledger.InstanceResidual(key.Node, key.VNF)).Error())
		}
	}
	for e, alpha := range cb.EdgeUse {
		demand := float64(alpha) * p.Rate
		if ledger.EdgeResidual(e) < demand-1e-9 {
			out = append(out, fmt.Errorf("core: link %d over capacity: need %v, residual %v", e, demand, ledger.EdgeResidual(e)).Error())
		}
	}
	return out
}

// sameResiduals compares every edge and instance residual bit for bit.
func sameResiduals(t *testing.T, label string, net *network.Network, got, want *network.Ledger) {
	t.Helper()
	for e := 0; e < net.G.NumEdges(); e++ {
		a, b := got.EdgeResidual(graph.EdgeID(e)), want.EdgeResidual(graph.EdgeID(e))
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: edge %d residual %v, reference %v", label, e, a, b)
		}
	}
	net.Instances(func(inst network.Instance) {
		a, b := got.InstanceResidual(inst.Node, inst.VNF), want.InstanceResidual(inst.Node, inst.VNF)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("%s: instance f(%d)@%d residual %v, reference %v", label, inst.VNF, inst.Node, a, b)
		}
	})
}

// checkAgainstReference runs one (problem, solution) through every oracle:
// pricing and reuse counts against refComputeCost, then Commit and
// Commit+Release residuals against the reference reservations on a twin
// ledger. p.Ledger must be nil or ample.
func checkAgainstReference(t *testing.T, label string, p *Problem, s *Solution) {
	t.Helper()
	want, err := refComputeCost(p, s)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	for name, eval := range map[string]func(*Problem, *Solution) (CostBreakdown, error){
		"ComputeCost": ComputeCost, "Evaluate": Evaluate,
	} {
		cb, err := eval(p, s)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, name, err)
		}
		if math.Float64bits(cb.VNFCost) != math.Float64bits(want.VNFCost) ||
			math.Float64bits(cb.LinkCost) != math.Float64bits(want.LinkCost) {
			t.Fatalf("%s: %s priced (%v, %v), reference (%v, %v)", label, name,
				cb.VNFCost, cb.LinkCost, want.VNFCost, want.LinkCost)
		}
		got := refMaps(cb)
		if !reflect.DeepEqual(got.InstanceUse, want.InstanceUse) || !reflect.DeepEqual(got.EdgeUse, want.EdgeUse) {
			t.Fatalf("%s: %s reuse counts differ:\n got %v %v\nwant %v %v", label, name,
				got.InstanceUse, got.EdgeUse, want.InstanceUse, want.EdgeUse)
		}
		if !sort.SliceIsSorted(cb.Usage.Edges, func(i, j int) bool { return cb.Usage.Edges[i].Edge < cb.Usage.Edges[j].Edge }) ||
			len(cb.Usage.Edges) != len(want.EdgeUse) || len(cb.Usage.Instances) != len(want.InstanceUse) {
			t.Fatalf("%s: %s usage not sorted and merged: %+v", label, name, cb.Usage)
		}
	}

	seed := network.NewLedger(p.Net)
	live, twin := network.NewLedger(p.Net), network.NewLedger(p.Net)
	q := *p
	q.Ledger = live
	cb, err := Commit(&q, s)
	if err != nil {
		t.Fatalf("%s: Commit: %v", label, err)
	}
	if math.Float64bits(cb.Total()) != math.Float64bits(want.VNFCost+want.LinkCost) {
		t.Fatalf("%s: Commit priced %v, reference %v", label, cb.Total(), want.VNFCost+want.LinkCost)
	}
	refReserve(t, twin, p.Rate, want)
	sameResiduals(t, label+": after Commit", p.Net, live, twin)
	if err := Release(&q, s); err != nil {
		t.Fatalf("%s: Release: %v", label, err)
	}
	refRelease(twin, p.Rate, want)
	sameResiduals(t, label+": after Release", p.Net, live, twin)
	sameResiduals(t, label+": back at seed", p.Net, live, seed)
}

// TestPricingMatchesReferenceOnEmbeddings compares the pooled-scratch
// pricing with the map-based reference on what the embedders actually
// produce: the TestRewriteGolden problems under every golden
// configuration, and the pure-chain corpus internal/exact pins MBBE on.
func TestPricingMatchesReferenceOnEmbeddings(t *testing.T) {
	delay := MBBEOptions()
	delay.MaxDelay = 5.0
	for name, opts := range map[string]Options{
		"bbe": BBEOptions(), "mbbe": MBBEOptions(), "mbbe+delay": delay,
	} {
		for seed := int64(1); seed <= 3; seed++ {
			p := randomProblem(rand.New(rand.NewSource(seed)), 60, 6, 4)
			res, err := Embed(p, opts)
			if err != nil {
				t.Fatalf("%s/seed=%d: %v", name, seed, err)
			}
			checkAgainstReference(t, fmt.Sprintf("%s/seed=%d", name, seed), p, res.Solution)
		}
	}
	for seed := int64(0); seed < 240; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cfg := netgen.Default()
		cfg.Nodes = 8 + rng.Intn(18)
		cfg.VNFKinds = 8
		cfg.Connectivity = 2 + 2*rng.Float64()
		net := netgen.MustGenerate(cfg, rng)
		p := &Problem{
			Net: net,
			SFC: sfcgen.MustGenerate(sfcgen.Config{Size: 1 + int(seed)%8, LayerWidth: 1, VNFKinds: cfg.VNFKinds}, rng),
			Src: graph.NodeID(rng.Intn(cfg.Nodes)), Dst: graph.NodeID(rng.Intn(cfg.Nodes)),
			Rate: 1, Size: 1 + float64(rng.Intn(3)),
		}
		res, err := EmbedMBBE(p)
		if err != nil {
			t.Fatalf("chain %d: %v", seed, err)
		}
		checkAgainstReference(t, fmt.Sprintf("chain %d", seed), p, res.Solution)
	}
}

// randomWalkSolution builds a structurally valid solution whose paths are
// shortest paths through a random waypoint, on a graph small enough that
// they keep running into each other: parallel branches share inter-layer
// links, inner paths repeat links (also the layer's own inter-layer ones),
// and the tail runs back over layer paths.
func randomWalkSolution(rng *rand.Rand, p *Problem) *Solution {
	g := p.Net.G
	walk := func(from, to graph.NodeID) graph.Path {
		via := graph.NodeID(rng.Intn(g.NumNodes()))
		a, _ := g.MinCostPath(from, via, nil)
		b, _ := g.MinCostPath(via, to, nil)
		return a.Concat(g, b)
	}
	host := func(vnf network.VNFID) graph.NodeID {
		nodes := p.Net.NodesWith(vnf)
		return nodes[rng.Intn(len(nodes))]
	}
	s := &Solution{}
	at := p.Src
	for _, spec := range p.SFC.Layers {
		le := LayerEmbedding{}
		for _, vnf := range spec.VNFs {
			v := host(vnf)
			le.Nodes = append(le.Nodes, v)
			le.InterPaths = append(le.InterPaths, walk(at, v))
		}
		le.MergerNode = le.Nodes[0]
		if spec.Parallel() {
			le.MergerNode = host(p.Net.Catalog.Merger())
			for _, v := range le.Nodes {
				le.InnerPaths = append(le.InnerPaths, walk(v, le.MergerNode))
			}
		}
		s.Layers = append(s.Layers, le)
		at = le.EndNode()
	}
	s.TailPath = walk(at, p.Dst)
	return s
}

// randomWalkProblem draws a small dense instance with every category
// deployed on a few nodes and capacity far above any walk's demand.
func randomWalkProblem(rng *rand.Rand) *Problem {
	cfg := netgen.Default()
	cfg.Nodes = 6 + rng.Intn(10)
	cfg.VNFKinds = 8
	cfg.Connectivity = 2 + 2*rng.Float64()
	cfg.LinkCapacity = 1e6
	cfg.InstanceCapacity = 1e6
	net := netgen.MustGenerate(cfg, rng)
	return &Problem{
		Net: net,
		SFC: sfcgen.MustGenerate(sfcgen.Config{Size: 1 + rng.Intn(7), LayerWidth: 1 + rng.Intn(3), VNFKinds: cfg.VNFKinds}, rng),
		Src: graph.NodeID(rng.Intn(cfg.Nodes)), Dst: graph.NodeID(rng.Intn(cfg.Nodes)),
		Rate: 0.1 + rng.Float64(), Size: 0.5 + 3*rng.Float64(),
	}
}

// TestPricingMatchesReferenceOnRandomWalks is the adversarial half of the
// oracle: 2400 hand-built solutions no embedder would return, with every
// kind of overlap the reuse counts of eqs. (7)–(10) distinguish. The
// overlap tallies at the end prove the generator reaches them.
func TestPricingMatchesReferenceOnRandomWalks(t *testing.T) {
	var sharedInter, innerRepeat, tailOverlap, instReuse int
	for seed := int64(0); seed < 2400; seed++ {
		rng := rand.New(rand.NewSource(7000 + seed))
		p := randomWalkProblem(rng)
		s := randomWalkSolution(rng, p)
		if err := Validate(p, s); err != nil {
			t.Fatalf("seed %d: generator built an invalid solution: %v", seed, err)
		}
		checkAgainstReference(t, fmt.Sprintf("walk %d", seed), p, s)

		layerEdges := map[graph.EdgeID]bool{}
		for _, le := range s.Layers {
			seen := map[graph.EdgeID]int{}
			for _, path := range le.InterPaths {
				for _, e := range uniqueEdges(path) {
					seen[e]++
					layerEdges[e] = true
				}
			}
			for _, n := range seen {
				if n > 1 {
					sharedInter++
					break
				}
			}
			inner := map[graph.EdgeID]int{}
			for _, path := range le.InnerPaths {
				for _, e := range path.Edges {
					inner[e]++
					layerEdges[e] = true
				}
			}
			for _, n := range inner {
				if n > 1 {
					innerRepeat++
					break
				}
			}
		}
		for _, e := range s.TailPath.Edges {
			if layerEdges[e] {
				tailOverlap++
				break
			}
		}
		cb, _ := ComputeCost(p, s)
		for _, u := range cb.Usage.Instances {
			if u.Count > 1 {
				instReuse++
				break
			}
		}
	}
	t.Logf("overlaps reached: shared inter-layer links %d layers, repeated inner links %d layers, tail over a layer path %d solutions, instance reuse %d solutions",
		sharedInter, innerRepeat, tailOverlap, instReuse)
	if sharedInter < 100 || innerRepeat < 100 || tailOverlap < 100 || instReuse < 100 {
		t.Fatal("the generator no longer produces the overlaps this oracle exists for")
	}
}

func uniqueEdges(p graph.Path) []graph.EdgeID {
	seen := map[graph.EdgeID]bool{}
	var out []graph.EdgeID
	for _, e := range p.Edges {
		if !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	return out
}

// TestCapacityErrorMatchesReference pins the validator's verdict text: with
// exactly one instance, then exactly one link, short of capacity, Validate,
// CheckCapacity and Commit report the violation the map-based check did —
// and Commit leaves the ledger untouched.
func TestCapacityErrorMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(9000 + seed))
		p := randomWalkProblem(rng)
		s := randomWalkSolution(rng, p)
		want, err := refComputeCost(p, s)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := Evaluate(p, s)
		if err != nil {
			t.Fatal(err)
		}
		// Leave one instance, then one link, exactly half a unit short.
		iu := cb.Usage.Instances[rng.Intn(len(cb.Usage.Instances))]
		squeeze := map[string]func(l *network.Ledger){
			"instance": func(l *network.Ledger) {
				inst, _ := p.Net.Instance(iu.Node, iu.VNF)
				if err := l.ReserveInstance(iu.Node, iu.VNF, inst.Capacity-float64(iu.Count)*p.Rate+0.5*p.Rate); err != nil {
					t.Fatal(err)
				}
			},
		}
		if len(cb.Usage.Edges) > 0 {
			eu := cb.Usage.Edges[rng.Intn(len(cb.Usage.Edges))]
			squeeze["link"] = func(l *network.Ledger) {
				if err := l.ReserveEdge(eu.Edge, p.Net.G.Edge(eu.Edge).Capacity-float64(eu.Count)*p.Rate+0.5*p.Rate); err != nil {
					t.Fatal(err)
				}
			}
		}
		for what, fill := range squeeze {
			q := *p
			q.Ledger = network.NewLedger(p.Net)
			fill(q.Ledger)
			before := q.Ledger.Snapshot()
			ref := refCapacityErrors(&q, want)
			if len(ref) != 1 {
				t.Fatalf("seed %d %s: reference reports %d violations, want 1", seed, what, len(ref))
			}
			for name, err := range map[string]error{
				"Validate":      Validate(&q, s),
				"CheckCapacity": CheckCapacity(&q, cb.Usage),
				"Commit":        func() error { _, err := Commit(&q, s); return err }(),
				"Reserve":       Reserve(&q, cb.Usage),
			} {
				if err == nil || err.Error() != ref[0] {
					t.Fatalf("seed %d %s: %s said %v, reference %q", seed, what, name, err, ref[0])
				}
			}
			sameResiduals(t, fmt.Sprintf("seed %d %s: after refused Commit", seed, what), p.Net, q.Ledger, before)
		}
	}
}

// TestReserveRollsBack drives the bug-guard branch of Reserve: the usage
// passes CheckCapacity entry by entry, but two entries name the same link,
// so the second reservation fails — and everything reserved before it,
// instances included, must be returned.
func TestReserveRollsBack(t *testing.T) {
	p := lineFixture()
	p.Ledger = network.NewLedger(p.Net)
	before := p.Ledger.Snapshot()
	capacity := p.Net.G.Edge(0).Capacity
	u := Usage{
		Instances: []InstanceCount{{InstanceUseKey{1, 1}, 1}},
		Edges:     []EdgeCount{{Edge: 0, Count: int(capacity)}, {Edge: 0, Count: int(capacity)}},
	}
	if err := Reserve(p, u); err == nil {
		t.Fatal("Reserve accepted a usage that books one link twice over capacity")
	}
	sameResiduals(t, "after failed Reserve", p.Net, p.Ledger, before)
}

// TestCommitReleaseAllocCeiling is the allocation budget of the ledger
// path: validating, committing and releasing a placement tallies its usage
// in pooled scratch, so the only objects left are the two usage lists the
// CostBreakdown Commit returns.
func TestCommitReleaseAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ceiling = 6
	p, sol := commitReleaseFixture(t)
	allocs := testing.AllocsPerRun(50, func() {
		if err := Validate(p, sol); err != nil {
			t.Fatal(err)
		}
		if _, err := Commit(p, sol); err != nil {
			t.Fatal(err)
		}
		if err := Release(p, sol); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("Validate+Commit+Release allocated %.0f objects, ceiling %d", allocs, ceiling)
	}
	t.Logf("Validate+Commit+Release: %.0f allocs (ceiling %d)", allocs, ceiling)
}
