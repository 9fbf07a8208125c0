package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// delayFixture: two hosts of f(1), both one hop from the source so the
// forward search sees both: A (node 1, $50) sits next to the destination,
// B (node 2, $10) is four hops from it. Unbounded search prefers cheap B;
// a tight delay bound forces expensive-but-near A.
//
//	0 -- 1(A) -- 3(dst)
//	0 -- 2(B) -- 4 -- 5 -- 6 -- 3
func delayFixture() *Problem {
	g := graph.New(7)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(0, 2, 1, 100)
	g.MustAddEdge(1, 3, 1, 100)
	g.MustAddEdge(2, 4, 1, 100)
	g.MustAddEdge(4, 5, 1, 100)
	g.MustAddEdge(5, 6, 1, 100)
	g.MustAddEdge(6, 3, 1, 100)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 50, 100)
	net.MustAddInstance(2, 1, 10, 100)
	return &Problem{
		Net: net,
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
		Src: 0, Dst: 3, Rate: 1, Size: 1,
	}
}

func TestDelayBoundForcesNearHost(t *testing.T) {
	params := DelayParams{DefaultProcDelay: 1, HopDelay: 1}

	// Unbounded: cheap host B wins (10 + 1 + 4 links = 15 vs 50 + 2 = 52).
	// Its delay: 1 inter hop + 1 proc + 4 tail hops = 6.
	p := delayFixture()
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Layers[0].Nodes[0] != 2 {
		t.Fatalf("unbounded pick = node %d, want cheap node 2", res.Solution.Layers[0].Nodes[0])
	}

	// Bound 4: B's delay (6) is out; A's is 1 + 1 + 1 = 3.
	q := delayFixture()
	opts := MBBEOptions()
	opts.MaxDelay = 4
	opts.Delay = params
	bounded, err := Embed(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Solution.Layers[0].Nodes[0] != 1 {
		t.Fatalf("bounded pick = node %d, want near node 1", bounded.Solution.Layers[0].Nodes[0])
	}
	if bounded.Cost.Total() <= res.Cost.Total() {
		t.Fatal("meeting the bound should cost more here")
	}
}

func TestDelayBoundUnsatisfiable(t *testing.T) {
	p := delayFixture()
	opts := MBBEOptions()
	opts.MaxDelay = 0.5 // below even one processing delay
	opts.Delay = DelayParams{DefaultProcDelay: 1, HopDelay: 1}
	if _, err := Embed(p, opts); !errors.Is(err, ErrNoEmbedding) {
		t.Fatalf("err = %v, want ErrNoEmbedding", err)
	}
}

func TestDelayBoundDefaultsParams(t *testing.T) {
	p := delayFixture()
	opts := MBBEOptions()
	opts.MaxDelay = 1000 // generous; zero Delay must default, not divide by zero
	res, err := Embed(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total() <= 0 {
		t.Fatal("no solution under generous bound")
	}
}

func TestDelayBoundedSolutionsRespectBoundProperty(t *testing.T) {
	params := DefaultDelayParams()
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 50, 6, 5)
		opts := MBBEOptions()
		opts.MaxDelay = 4.0
		opts.Delay = params
		res, err := Embed(p, opts)
		if err != nil {
			if !errors.Is(err, ErrNoEmbedding) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			continue
		}
		if err := Validate(p, res.Solution); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		total := EvaluateDelay(p, res.Solution, params)
		if total > opts.MaxDelay+1e-9 {
			t.Fatalf("seed %d: delivered delay %v exceeds bound %v", seed, total, opts.MaxDelay)
		}
	}
}

// hops returns a path of n links; layerDelay reads only its length.
func hops(n int) graph.Path { return graph.Path{Edges: make([]graph.EdgeID, n)} }

func TestProcOverrides(t *testing.T) {
	d := DelayParams{DefaultProcDelay: 1, ProcDelay: map[network.VNFID]float64{2: 7}}
	if d.proc(1) != 1 || d.proc(2) != 7 {
		t.Fatal("proc lookup wrong")
	}
}

func TestLayerDelaySingle(t *testing.T) {
	d := DelayParams{DefaultProcDelay: 1, HopDelay: 0.5, MergerDelay: 10}
	got := d.layerDelay([]network.VNFID{1}, []graph.Path{hops(3)}, nil, false)
	if math.Abs(got-2.5) > 1e-12 { // 3 hops * 0.5 + 1 proc, no merger
		t.Fatalf("single layer delay = %v, want 2.5", got)
	}
}

func TestLayerDelayParallelTakesMax(t *testing.T) {
	d := DelayParams{DefaultProcDelay: 1, HopDelay: 1, MergerDelay: 0.25,
		ProcDelay: map[network.VNFID]float64{2: 5}}
	// Branch 1: 1+1+1=3; branch 2: 0+5+2=7. Max 7 + merger 0.25.
	got := d.layerDelay([]network.VNFID{1, 2}, []graph.Path{hops(1), hops(0)}, []graph.Path{hops(1), hops(2)}, true)
	if math.Abs(got-7.25) > 1e-12 {
		t.Fatalf("parallel layer delay = %v, want 7.25", got)
	}
}

func TestLayerDelayEmpty(t *testing.T) {
	if got := DefaultDelayParams().layerDelay(nil, nil, nil, false); got != 0 {
		t.Fatalf("empty layer delay = %v", got)
	}
}

func TestDefaultDelayParamsSane(t *testing.T) {
	d := DefaultDelayParams()
	if d.DefaultProcDelay <= 0 || d.HopDelay <= 0 || d.MergerDelay <= 0 {
		t.Fatalf("DefaultDelayParams() = %+v", d)
	}
}

// TestEvaluateDelayFixture prices lineSolution by hand: a single-VNF layer
// pays no merger, a parallel one its slowest branch plus the merger.
func TestEvaluateDelayFixture(t *testing.T) {
	p, s := lineFixture(), lineSolution()
	d := DelayParams{DefaultProcDelay: 1, MergerDelay: 0.5, HopDelay: 0.1}
	// Layer 1: inter 1 hop (0.1) + proc 1 = 1.1, no merger.
	// Layer 2 branches: f2: 1 hop + 1 + inner 0 = 1.1;
	//                   f3: 0 + 1 + inner 1 hop = 1.1. Max 1.1 + merger 0.5.
	// Tail: 1 hop = 0.1.
	want := 1.1 + 1.1 + 0.5 + 0.1
	if got := EvaluateDelay(p, s, d); math.Abs(got-want) > 1e-9 {
		t.Fatalf("delay = %v, want %v", got, want)
	}
}

// TestEvaluateDelayMaxOverBranches: a per-category override slows one
// branch, and the parallel layer tracks that branch alone.
func TestEvaluateDelayMaxOverBranches(t *testing.T) {
	p, s := lineFixture(), lineSolution()
	d := DelayParams{ProcDelay: map[network.VNFID]float64{3: 10}, DefaultProcDelay: 1}
	if got, want := EvaluateDelay(p, s, d), 1.0+10.0; math.Abs(got-want) > 1e-9 {
		t.Fatalf("delay = %v, want %v (layer 1 f1 + layer 2 max(1, 10))", got, want)
	}
}

func TestEvaluateDelayEmptySolution(t *testing.T) {
	p := lineFixture()
	p.SFC = sfc.DAGSFC{}
	s := &Solution{TailPath: graph.Path{From: 0, Edges: []graph.EdgeID{0, 1, 2}}}
	if got := EvaluateDelay(p, s, DelayParams{HopDelay: 2}); got != 6 {
		t.Fatalf("delay = %v, want 6 (3 hops x 2)", got)
	}
}

func TestSequentialProblemStructure(t *testing.T) {
	p := lineFixture()
	q := SequentialProblem(p)
	if q.SFC.Omega() != 3 || q.SFC.MaxWidth() != 1 {
		t.Fatalf("sequential SFC = %v", q.SFC)
	}
	if q.SFC.Size() != p.SFC.Size() {
		t.Fatal("sequential form changed the VNF multiset size")
	}
	if p.SFC.Omega() != 2 {
		t.Fatal("SequentialProblem mutated the original")
	}
}

// TestHybridBeatsSequentialDelayProperty: on generated instances the hybrid
// embedding's delay never exceeds the sequential embedding's of the same
// chain under the same algorithm, and is usually strictly lower.
func TestHybridBeatsSequentialDelayProperty(t *testing.T) {
	d := DefaultDelayParams()
	strict, checked := 0, 0
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := netgen.Default()
		cfg.Nodes = 60
		cfg.VNFKinds = 8
		net := netgen.MustGenerate(cfg, rng)
		s := sfcgen.MustGenerate(sfcgen.Config{Size: 6, LayerWidth: 3, VNFKinds: 8}, rng)
		p := &Problem{
			Net: net, SFC: s,
			Src: graph.NodeID(rng.Intn(60)), Dst: graph.NodeID(rng.Intn(60)),
			Rate: 1, Size: 1,
		}
		hybrid, err := EmbedMBBE(p)
		if err != nil {
			continue
		}
		q := SequentialProblem(p)
		seq, err := EmbedMBBE(q)
		if err != nil {
			continue
		}
		dh, ds := EvaluateDelay(p, hybrid.Solution, d), EvaluateDelay(q, seq.Solution, d)
		checked++
		// With 6 VNFs in 2 layers against 6 serial layers the processing
		// term alone guarantees a win at the default parameters.
		if dh > ds+1e-9 {
			t.Fatalf("seed %d: hybrid delay %v > sequential %v", seed, dh, ds)
		}
		if dh < ds-1e-9 {
			strict++
		}
	}
	if checked == 0 {
		t.Skip("no feasible instances")
	}
	if strict == 0 {
		t.Fatal("hybrid never strictly beat sequential delay")
	}
}
