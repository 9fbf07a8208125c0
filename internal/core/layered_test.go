package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// costSlack is the relative tolerance of the never-costlier comparisons:
// the kernel ranks walks by its own left-to-right sums while ComputeCost
// adds rents and link prices in edge order, so two walks whose costs tie
// mathematically may differ in the last bits.
const costSlack = 1e-9

// embedPerLayer is Embed with every layer, single-VNF runs included, sent
// through the per-layer search.
func embedPerLayer(p *Problem, opts Options) (*Result, error) {
	return embedReference(p, opts, func(e *embedder) { e.perLayer = true })
}

// embedBothWays runs the same options with the layered kernel (what every
// caller gets) and with every layer sent through the per-layer search.
func embedBothWays(t *testing.T, p *Problem, opts Options) (kernel, perLayer *Result) {
	t.Helper()
	kernel, err := Embed(p, opts)
	if err != nil {
		t.Fatalf("kernel embed: %v", err)
	}
	if err := Validate(p, kernel.Solution); err != nil {
		t.Fatalf("kernel embed fails validation: %v", err)
	}
	perLayer, err = embedPerLayer(p, opts)
	if err != nil {
		t.Fatalf("per-layer embed: %v", err)
	}
	if perLayer.Stats.LayeredRuns != 0 {
		t.Fatalf("the per-layer hook still ran the kernel %d times", perLayer.Stats.LayeredRuns)
	}
	return kernel, perLayer
}

// TestLayeredNeverCostlierOnSerialChains is the differential on the
// embed-serial shape: the Table 2 substrate, six single-VNF layers. The
// whole SFC is one terminal run, so the kernel's answer is the optimum and
// the per-layer beam can at best tie it — per flow, not on average.
func TestLayeredNeverCostlierOnSerialChains(t *testing.T) {
	cfg := netgen.Default()
	net := netgen.MustGenerate(cfg, rand.New(rand.NewSource(11)))
	rng := rand.New(rand.NewSource(12))
	opts := MBBEOptions()
	cheaper := 0
	for flow := 0; flow < 150; flow++ {
		src := graph.NodeID(rng.Intn(cfg.Nodes))
		dst := graph.NodeID(rng.Intn(cfg.Nodes))
		dag := sfcgen.MustGenerate(sfcgen.Config{Size: 6, LayerWidth: 1, VNFKinds: cfg.VNFKinds}, rng)
		p := &Problem{Net: net, SFC: dag, Src: src, Dst: dst, Rate: 1, Size: 1}
		k, pl := embedBothWays(t, p, opts)
		if k.Cost.Total() > pl.Cost.Total()*(1+costSlack) {
			t.Fatalf("flow %d (%v, %d→%d): kernel %v costlier than per-layer %v",
				flow, dag, src, dst, k.Cost.Total(), pl.Cost.Total())
		}
		if k.Cost.Total() < pl.Cost.Total()*(1-costSlack) {
			cheaper++
		}
		want := Stats{LayeredRuns: 1, ForwardSearches: 1, Extensions: 6, SubSolutions: 6,
			TreeNodes: k.Stats.TreeNodes, PathTreeNodes: k.Stats.PathTreeNodes}
		if k.Stats != want {
			t.Fatalf("flow %d: kernel stats %+v, want one run, one search, one chain of six", flow, k.Stats)
		}
	}
	if cheaper == 0 {
		t.Fatal("the kernel never beat the per-layer search; on this population it should on most flows")
	}
}

// TestLayeredMixedDAGs is the differential on hybrid SFCs: stock chains
// standardised with the stock rules at width 3, as the server does, on a
// 50-node substrate. A terminal run is exact for the frontier it gets, but
// the frontier a run hands a parallel layer is a beam either way, so here
// the claim is on the mean; flows that are pure chains (one terminal run,
// nothing else) must still never be costlier.
func TestLayeredMixedDAGs(t *testing.T) {
	cfg := netgen.Default()
	cfg.Nodes = 50
	net := netgen.MustGenerate(cfg, rand.New(rand.NewSource(12)))
	rng := rand.New(rand.NewSource(13))
	rules := sfc.StockRules()
	opts := MBBEOptions()
	var kernelSum, perLayerSum float64
	runs, mixed := 0, 0
	for flow := 0; flow < 300; flow++ {
		src := graph.NodeID(rng.Intn(cfg.Nodes))
		dst := graph.NodeID(rng.Intn(cfg.Nodes))
		perm := rng.Perm(int(sfc.TrafficShaper))
		chain := make([]network.VNFID, 3+rng.Intn(6))
		for i := range chain {
			chain[i] = network.VNFID(perm[i] + 1)
		}
		dag := sfc.ChainToDAG(chain, rules, 3)
		p := &Problem{Net: net, SFC: dag, Src: src, Dst: dst, Rate: 1, Size: 1}
		k, pl := embedBothWays(t, p, opts)
		kernelSum += k.Cost.Total()
		perLayerSum += pl.Cost.Total()
		runs += k.Stats.LayeredRuns
		if k.Stats.LayeredFallbacks != 0 {
			t.Fatalf("flow %d: fallback on ample capacity", flow)
		}
		if dag.MaxWidth() > 1 && k.Stats.LayeredRuns > 0 {
			mixed++
		}
		if dag.MaxWidth() == 1 && k.Cost.Total() > pl.Cost.Total()*(1+costSlack) {
			t.Fatalf("flow %d (%v): pure chain, kernel %v costlier than per-layer %v", flow, dag, k.Cost.Total(), pl.Cost.Total())
		}
	}
	if mixed < 50 {
		t.Fatalf("only %d flows mix parallel layers with single-VNF runs; the corpus no longer covers hand-over", mixed)
	}
	if kernelSum > perLayerSum*(1+costSlack) {
		t.Fatalf("mean cost rose: kernel %v, per-layer %v over 300 flows (%d runs)", kernelSum/300, perLayerSum/300, runs)
	}
}

// crossTwiceFixture is a substrate where the cheapest walk crosses one
// link twice: the cheap host A hangs off X by a link with room for exactly
// one traversal, and the way on to the destination leads back over it.
//
//	S(0) —1— X(1) —1— A(2)      X–A has room for one traversal at rate 1
//	 |        |
//	 5        1                 f1 @ A and @ B, both price 1
//	 |        |
//	Y(4)     D(3)               SFC [f1], S → D
//	 |        |
//	 5— B(5) —5
//
// B sits as many hops from S as A does (through Y), so the per-layer
// forward search, which stops at the first level that covers f1, sees both.
func crossTwiceFixture() *Problem {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 4, 5, 10)
	g.MustAddEdge(4, 5, 5, 10)
	g.MustAddEdge(5, 3, 5, 10)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(2, 1, 1, 10)
	net.MustAddInstance(5, 1, 1, 10)
	return &Problem{Net: net, SFC: fromWidths([][]network.VNFID{{1}}), Src: 0, Dst: 3, Rate: 1, Size: 1}
}

// sameInstanceTwiceFixture is a chain naming one category twice over a
// cheap instance with room for one use: the cheapest walk processes both
// layers on A.
//
//	S(0) —1— A(1) —1— D(3)        f1 @ A price 1 capacity 1
//	  \                /          f1 @ B price 5 capacity 10
//	   1— B(2) ——1————            SFC [f1] → [f1], S → D
func sameInstanceTwiceFixture() *Problem {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 1, 1)
	net.MustAddInstance(2, 1, 5, 10)
	return &Problem{Net: net, SFC: fromWidths([][]network.VNFID{{1}, {1}}), Src: 0, Dst: 3, Rate: 1, Size: 1}
}

// TestLayeredCoupledCapacityFallsBack covers what the kernel cannot see:
// capacity shared between two arcs of one walk. The validator turns the
// kernel's proposal down, the run is searched layer by layer instead, and
// Embed still returns a feasible solution — no false rejection.
func TestLayeredCoupledCapacityFallsBack(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *Problem
		cost float64
	}{
		// To B by way of X and D: links 1+1+5, rent 1, 5 back to D.
		{"link crossed twice", crossTwiceFixture(), 13},
		// Both layers on B: link 1, rents 5+5, link 1.
		{"capacity-1 instance used twice", sameInstanceTwiceFixture(), 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, tr, err := embedTraced(tc.p, MBBEOptions())
			if err != nil {
				t.Fatalf("embed failed where the per-layer search succeeds: %v", err)
			}
			if err := Validate(tc.p, res.Solution); err != nil {
				t.Fatalf("solution fails validation: %v", err)
			}
			if res.Cost.Total() != tc.cost {
				t.Fatalf("cost %v, want %v", res.Cost.Total(), tc.cost)
			}
			if res.Stats.LayeredRuns != 1 || res.Stats.LayeredFallbacks != 1 || res.Stats.CapacityRejections == 0 {
				t.Fatalf("stats %+v, want one run, one fallback and its rejection counted", res.Stats)
			}
			runs := findSpans(tr.Root(), "layered-run")
			if len(runs) != 1 || runs[0].Attr("fallback") != "capacity" || runs[0].Attr("exits") != 1 || runs[0].Attr("kept") != 0 {
				t.Fatalf("%d layered-run spans, want one capacity fallback:\n%s", len(runs), outline(t, tr))
			}
			// The per-layer search takes layer 1 over in the same row.
			if layer := findChildren(tr.Root(), "layer 1"); len(layer) != 1 || len(findChildren(layer[0], "candidates")) == 0 {
				t.Fatalf("layer 1 has no per-layer search after the fallback:\n%s", outline(t, tr))
			}
		})
	}
}

// TestLayeredUnreachableIsInfeasible pins the one case the kernel answers
// with an error of its own: no walk through admitted hosts exists, so no
// embedding does, and the per-layer search is not consulted.
func TestLayeredUnreachableIsInfeasible(t *testing.T) {
	p := crossTwiceFixture()
	opts := MBBEOptions()
	// Cut the destination off: the backup-embed shape, bans on a primary's
	// links.
	opts.BannedEdges = map[graph.EdgeID]bool{2: true, 5: true}
	res, err := Embed(p, opts)
	if !errors.Is(err, ErrNoEmbedding) {
		t.Fatalf("got %v, %v; want ErrNoEmbedding", res, err)
	}
	if _, err := embedPerLayer(p, opts); !errors.Is(err, ErrNoEmbedding) {
		t.Fatalf("per-layer search disagrees: %v", err)
	}
}

// TestLayeredHandsFrontierToParallelLayer checks the non-terminal rule on
// an instance small enough to enumerate: the run ahead of a parallel layer
// stops at Xd exits per distinct entering end node, cost-sorted, and the
// parallel layer consumes them as its parents.
func TestLayeredHandsFrontierToParallelLayer(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 40, 6, 4)
	p.SFC = fromWidths([][]network.VNFID{{1}, {2}, {3, 4}})
	opts := MBBEOptions()
	res, tr, err := embedTraced(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	runs := findSpans(tr.Root(), "layered-run")
	if len(runs) != 1 || runs[0].Attr("layers") != "1-2" || runs[0].Attr("terminal") != false || runs[0].Attr("seeds") != 1 {
		t.Fatalf("%d layered-run spans, want one non-terminal run over layers 1-2 from the source:\n%s", len(runs), outline(t, tr))
	}
	if runs[0].Attr("exits") != opts.Xd || runs[0].Attr("kept") != opts.Xd {
		t.Fatalf("run kept %v of %v exits, want Xd=%d", runs[0].Attr("kept"), runs[0].Attr("exits"), opts.Xd)
	}
	var parents []int
	for _, c := range tr.Root().Children() {
		if strings.HasPrefix(c.Name(), "layer ") {
			parents = append(parents, intAttr(c, "parents"))
		}
	}
	if want := []int{1, opts.Xd, opts.Xd}; !reflect.DeepEqual(parents, want) {
		t.Fatalf("layer parents %v, want %v", parents, want)
	}
	if res.Stats.BackwardSearches == 0 {
		t.Fatal("the parallel layer ran no backward search")
	}
}

// embedUndirected is Embed with the potential withheld from terminal layered
// runs: the plain search the directed one must agree with.
func embedUndirected(p *Problem, opts Options) (*Result, error) {
	return embedReference(p, opts, func(e *embedder) { e.undirected = true })
}

// TestBackupRunDirectedEqualsPlain is the differential on the one search
// that runs on a banned view of its own: protected serial chains, the
// backup embedded around its committed primary with the primary's links
// banned and, every other flow, its nodes too (server.backupBans). The
// potential's tree is then a private one grown on that banned view, bans
// make whole regions unreachable (+Inf potentials), and the backup must
// still be the one the undirected search finds — same placement, same cost
// to the bit, the same refusal when no disjoint backup exists — after
// fewer settled states.
func TestBackupRunDirectedEqualsPlain(t *testing.T) {
	cfg := netgen.Default()
	cfg.Nodes, cfg.Connectivity = 100, 3 // sparse: some endpoints have one link, and no disjoint backup
	net := netgen.MustGenerate(cfg, rand.New(rand.NewSource(23)))
	ledger := network.NewLedger(net)
	rng := rand.New(rand.NewSource(24))
	backups, refused, directed, plain := 0, 0, 0, 0
	for flow := 0; flow < 120; flow++ {
		dag := sfcgen.MustGenerate(sfcgen.Config{Size: 2 + rng.Intn(5), LayerWidth: 1, VNFKinds: cfg.VNFKinds}, rng)
		p := &Problem{Net: net, Ledger: ledger, SFC: dag, Rate: 1, Size: 1,
			Src: graph.NodeID(rng.Intn(cfg.Nodes)), Dst: graph.NodeID(rng.Intn(cfg.Nodes))}
		opts := MBBEOptions()
		primary, err := Embed(p, opts)
		if err != nil {
			t.Fatalf("flow %d: primary: %v", flow, err)
		}
		if _, err := Commit(p, primary.Solution); err != nil {
			t.Fatalf("flow %d: commit: %v", flow, err)
		}
		opts.BannedEdges, opts.BannedNodes = map[graph.EdgeID]bool{}, map[graph.NodeID]bool{}
		primary.Solution.VisitEdges(func(e graph.EdgeID) { opts.BannedEdges[e] = true })
		if flow%2 == 0 {
			primary.Solution.VisitNodes(func(v graph.NodeID) { opts.BannedNodes[v] = v != p.Src && v != p.Dst })
		}
		got, gotErr := Embed(p, opts)
		want, wantErr := embedUndirected(p, opts)
		if err := Release(p, primary.Solution); err != nil {
			t.Fatalf("flow %d: release: %v", flow, err)
		}
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("flow %d: directed backup err %v, undirected %v", flow, gotErr, wantErr)
			}
			refused++
			continue
		}
		backups++
		if !reflect.DeepEqual(got.Solution, want.Solution) || !reflect.DeepEqual(got.Cost, want.Cost) {
			t.Fatalf("flow %d (%v, %d→%d): directed backup %+v at %v, undirected %+v at %v",
				flow, dag, p.Src, p.Dst, got.Solution, got.Cost.Total(), want.Solution, want.Cost.Total())
		}
		if got.Stats.TreeNodes > want.Stats.TreeNodes {
			t.Fatalf("flow %d: directed backup settled %d states, undirected %d", flow, got.Stats.TreeNodes, want.Stats.TreeNodes)
		}
		if got.Stats.PathTreeNodes == 0 || want.Stats.PathTreeNodes != 0 {
			t.Fatalf("flow %d: private trees settled %d nodes directed, %d undirected; want the potential's tree and none",
				flow, got.Stats.PathTreeNodes, want.Stats.PathTreeNodes)
		}
		directed += got.Stats.TreeNodes
		plain += want.Stats.TreeNodes
	}
	if backups < 60 || refused == 0 {
		t.Fatalf("population too tame: %d backups, %d refusals", backups, refused)
	}
	t.Logf("%d backups, %d refusals; states settled: %d directed, %d undirected", backups, refused, directed, plain)
	if 2*directed > plain {
		t.Fatalf("directed backups settled %d states in all, undirected %d: the potential should at least halve it", directed, plain)
	}
}

// BenchmarkEmbedMBBESerial is one embed-serial op: six single-VNF layers
// on the Table 2 substrate, sequential. The whole SFC is one layered run.
func BenchmarkEmbedMBBESerial(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := netgen.Default()
	net := netgen.MustGenerate(cfg, rng)
	dag := sfcgen.MustGenerate(sfcgen.Config{Size: 6, LayerWidth: 1, VNFKinds: cfg.VNFKinds}, rng)
	p := &Problem{Net: net, SFC: dag, Src: 0, Dst: 250, Rate: 1, Size: 1}
	opts := MBBEOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Embed(p, opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.LayeredRuns != 1 || res.Stats.LayeredFallbacks != 0 {
			b.Fatalf("stats %+v, want one layered run", res.Stats)
		}
	}
}
