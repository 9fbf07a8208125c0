package exact

import (
	"errors"
	"math/rand"
	"testing"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// lineFixture is netgen.Line with the SFC [f1] -> [f2|f3 +m] from 0 to 3:
// the global optimum is 59, with f(3)@3.
func lineFixture() *core.Problem {
	s := sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}, {VNFs: []network.VNFID{2, 3}}}}
	return &core.Problem{Net: netgen.Line(), SFC: s, Src: 0, Dst: 3, Rate: 1, Size: 1}
}

func randomProblem(rng *rand.Rand, nodes, kinds, sfcSize int) *core.Problem {
	cfg := netgen.Default()
	cfg.Nodes = nodes
	cfg.VNFKinds = kinds
	cfg.Connectivity = 4
	net := netgen.MustGenerate(cfg, rng)
	s, src, dst := sfcgen.MustFlow(sfcgen.Config{Size: sfcSize, LayerWidth: 3, VNFKinds: kinds}, nodes, rng)
	return &core.Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1}
}

func TestExactFindsGlobalOptimumOnFixture(t *testing.T) {
	p := lineFixture()
	res, err := Embed(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	// The exact solver must find the f(3)@3 placement that BBE's
	// coverage-stopping forward search misses: total 59, not 73.
	if res.Cost.Total() != 59 {
		t.Fatalf("exact cost = %v, want 59 (%s)", res.Cost.Total(), res.Solution.String())
	}
}

func TestExactLowerBoundsHeuristicsProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive cross-check skipped in -short mode")
	}
	heuristics := []struct {
		name  string
		embed func(*core.Problem) (*core.Result, error)
	}{{"MBBE", core.EmbedMBBE}, {"BBE", core.EmbedBBE}, {"MINV", baseline.EmbedMINV}}
	const instances = 12
	compared := 0
	for seed := int64(0); seed < instances; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 20, 6, 1+rng.Intn(5))
		opt, err := Embed(p)
		if err != nil {
			if !errors.Is(err, core.ErrNoEmbedding) {
				t.Fatalf("seed %d: %v", seed, err)
			}
			continue
		}
		if err := core.Validate(p, opt.Solution); err != nil {
			t.Fatalf("seed %d: exact solution invalid: %v", seed, err)
		}
		const eps = 1e-6
		for _, h := range heuristics {
			res, err := h.embed(p)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, h.name, err)
			}
			if res.Cost.Total() < opt.Cost.Total()-eps {
				t.Fatalf("seed %d: %s %v beat 'exact' %v", seed, h.name, res.Cost.Total(), opt.Cost.Total())
			}
		}
		compared++
	}
	if compared != instances {
		t.Fatalf("compared %d of %d drawn instances: the oracle found no embedding for the rest", compared, instances)
	}
}

func TestExactEmptySFC(t *testing.T) {
	p := lineFixture()
	p.SFC = sfc.DAGSFC{}
	res, err := Embed(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total() != 6 { // 0->3 over the line: 1+2+3
		t.Fatalf("cost = %v, want 6", res.Cost.Total())
	}
}

func TestExactInfeasible(t *testing.T) {
	p := lineFixture()
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveInstance(2, 2, 10); err != nil { // only f(2) host
		t.Fatal(err)
	}
	p.Ledger = ledger
	if _, err := Embed(p); !errors.Is(err, core.ErrNoEmbedding) {
		t.Fatalf("err = %v, want ErrNoEmbedding", err)
	}
}

func TestExactRefusesLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 100, 4, 3)
	if _, err := Embed(p); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestExactRefusesWideLayers(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(1)), 20, 6, 3)
	p.SFC = sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1, 2, 3, 4}}}}
	if _, err := Embed(p); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestExactDeterministic(t *testing.T) {
	p1 := randomProblem(rand.New(rand.NewSource(3)), 20, 4, 4)
	p2 := randomProblem(rand.New(rand.NewSource(3)), 20, 4, 4)
	a, errA := Embed(p1)
	b, errB := Embed(p2)
	if (errA == nil) != (errB == nil) {
		t.Fatal("determinism broken")
	}
	if errA == nil && a.Cost.Total() != b.Cost.Total() {
		t.Fatalf("costs differ: %v vs %v", a.Cost.Total(), b.Cost.Total())
	}
}

// TestMBBEEqualsExactOnPureChains is the oracle behind "each run exactly
// optimal": on a pure chain the whole SFC is one terminal run of MBBE's
// layered kernel, whose answer is a shortest path in the layered substrate
// — the optimum of the very model this package solves by dynamic
// programming. Equality, not ≤: MBBE above exact would be a kernel bug,
// MBBE below exact a solver bug. Capacity is ample, so no run falls back.
func TestMBBEEqualsExactOnPureChains(t *testing.T) {
	const chains = 240
	for seed := int64(0); seed < chains; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		cfg := netgen.Default()
		cfg.Nodes = 8 + rng.Intn(18) // ≤ 25
		cfg.VNFKinds = 8
		cfg.Connectivity = 2 + 2*rng.Float64()
		net := netgen.MustGenerate(cfg, rng)
		size := 1 + int(seed)%8
		s, src, dst := sfcgen.MustFlow(sfcgen.Config{Size: size, LayerWidth: 1, VNFKinds: cfg.VNFKinds}, cfg.Nodes, rng)
		p := &core.Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1 + float64(rng.Intn(3))}
		opt, err := Embed(p)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		res, err := core.EmbedMBBE(p)
		if err != nil {
			t.Fatalf("seed %d: MBBE: %v", seed, err)
		}
		if err := core.Validate(p, res.Solution); err != nil {
			t.Fatalf("seed %d: MBBE solution invalid: %v", seed, err)
		}
		if res.Stats.LayeredRuns != 1 || res.Stats.LayeredFallbacks != 0 {
			t.Fatalf("seed %d: stats %+v, want one layered run and no fallback", seed, res.Stats)
		}
		if diff := res.Cost.Total() - opt.Cost.Total(); diff > 1e-9*opt.Cost.Total() || diff < -1e-9*opt.Cost.Total() {
			t.Fatalf("seed %d (%d nodes, %v): MBBE %v, exact %v", seed, cfg.Nodes, p.SFC, res.Cost.Total(), opt.Cost.Total())
		}
	}
}

// hybridSFC draws a DAG-SFC of two to four layers, each one to three VNFs
// wide and at least one of them parallel, over distinct categories.
func hybridSFC(rng *rand.Rand, kinds int) sfc.DAGSFC {
	for {
		perm := rng.Perm(kinds)
		var s sfc.DAGSFC
		parallel := false
		for n := 2 + rng.Intn(3); n > 0 && len(perm) >= 3; n-- {
			width := 1 + rng.Intn(3)
			layer := make([]network.VNFID, width)
			for i := range layer {
				layer[i] = network.VNFID(perm[i] + 1)
			}
			perm = perm[width:]
			s.Layers = append(s.Layers, sfc.Layer{VNFs: layer})
			parallel = parallel || width > 1
		}
		if parallel {
			return s
		}
	}
}

// TestMBBENearExactOnHybridDAGs is the same oracle where MBBE is a beam, not
// a shortest path: SFCs with width-2 and width-3 layers on substrates of at
// most 25 nodes. The exact solver is a lower bound on every instance, and
// over the corpus MBBE stays within 1 % of it: 0.25 % with the parallel-layer
// search looking one ring past coverage and ranking by the way still to go,
// 2.8 % with a search that stops at coverage — so the gap cannot reopen
// unnoticed. The corpus is small because a width-3 layer costs the oracle n³.
func TestMBBENearExactOnHybridDAGs(t *testing.T) {
	const instances = 16
	var mbbe, exact float64
	optimal := 0
	for seed := int64(0); seed < instances; seed++ {
		rng := rand.New(rand.NewSource(2600 + seed))
		cfg := netgen.Default()
		cfg.Nodes = 12 + rng.Intn(14) // ≤ 25
		cfg.VNFKinds = 9
		cfg.Connectivity = 2 + 2*rng.Float64()
		net := netgen.MustGenerate(cfg, rng)
		p := &core.Problem{
			Net: net, SFC: hybridSFC(rng, cfg.VNFKinds),
			Src: graph.NodeID(rng.Intn(cfg.Nodes)), Dst: graph.NodeID(rng.Intn(cfg.Nodes)),
			Rate: 1, Size: 1 + float64(rng.Intn(3)),
		}
		opt, err := Embed(p)
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		res, err := core.EmbedMBBE(p)
		if err != nil {
			t.Fatalf("seed %d: MBBE: %v", seed, err)
		}
		if err := core.Validate(p, res.Solution); err != nil {
			t.Fatalf("seed %d: MBBE solution invalid: %v", seed, err)
		}
		if opt.Cost.Total() > res.Cost.Total()+1e-9 {
			t.Fatalf("seed %d (%d nodes, %v): exact %v above MBBE %v", seed, cfg.Nodes, p.SFC, opt.Cost.Total(), res.Cost.Total())
		}
		if res.Cost.Total() <= opt.Cost.Total()*(1+1e-9) {
			optimal++
		}
		mbbe += res.Cost.Total()
		exact += opt.Cost.Total()
	}
	gap := mbbe/exact - 1
	t.Logf("%d instances: MBBE %.2f %% above exact in the mean, optimal on %d", instances, 100*gap, optimal)
	if gap > 0.01 {
		t.Fatalf("MBBE is %.2f %% above exact over the corpus, want at most 1 %%", 100*gap)
	}
}
