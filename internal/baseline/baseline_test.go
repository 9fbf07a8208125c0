package baseline

import (
	"errors"
	"math/rand"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// fixture: line 0-1-2-3 with duplicate f(1) deployments at different
// prices, single-layer SFC [f1].
func fixture() *core.Problem {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	g.MustAddEdge(2, 3, 1, 100)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 50, 100)
	net.MustAddInstance(2, 1, 10, 100) // cheapest
	net.MustAddInstance(3, 1, 30, 100)
	return &core.Problem{
		Net: net,
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
		Src: 0, Dst: 3, Rate: 1, Size: 1,
	}
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

func TestMINVPicksCheapestInstance(t *testing.T) {
	p := fixture()
	res, err := EmbedMINV(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solution.Layers[0].Nodes[0] != 2 {
		t.Fatalf("MINV picked node %d, want cheapest node 2", res.Solution.Layers[0].Nodes[0])
	}
	// Cost: f(1)@2 = 10, path 0->2 = 2, tail 2->3 = 1. Total 13.
	if res.Cost.Total() != 13 {
		t.Fatalf("MINV cost = %v, want 13", res.Cost.Total())
	}
	// A meta-path from a node to itself is EmptyPath, nil edges and all
	// (JSON null, not []).
	p.Dst = 2
	if res, err := EmbedMINV(p); err != nil || res.Solution.TailPath.From != 2 || res.Solution.TailPath.Edges != nil {
		t.Fatalf("tail from the VNF's own node: %+v, %v; want EmptyPath(2)", res, err)
	}
}

func TestMINVDeterministic(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 60, 6, 5)
	a, errA := EmbedMINV(p)
	b, errB := EmbedMINV(p)
	if (errA == nil) != (errB == nil) {
		t.Fatal("MINV determinism broken")
	}
	if errA == nil && a.Cost.Total() != b.Cost.Total() {
		t.Fatalf("MINV costs differ: %v vs %v", a.Cost.Total(), b.Cost.Total())
	}
}

func TestRANVUsesOnlyFeasibleHosts(t *testing.T) {
	p := fixture()
	rng := rand.New(rand.NewSource(1))
	seen := map[graph.NodeID]bool{}
	for i := 0; i < 50; i++ {
		q := fixture()
		res, err := EmbedRANV(q, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := core.Validate(q, res.Solution); err != nil {
			t.Fatal(err)
		}
		seen[res.Solution.Layers[0].Nodes[0]] = true
	}
	// All three hosts should appear over 50 draws.
	if len(seen) != 3 {
		t.Fatalf("RANV host diversity = %v, want all of {1,2,3}", seen)
	}
	_ = p
}

func TestRANVRespectsCapacity(t *testing.T) {
	p := fixture()
	ledger := network.NewLedger(p.Net)
	// Exhaust nodes 1 and 3: only node 2 remains feasible.
	if err := ledger.ReserveInstance(1, 1, 100); err != nil {
		t.Fatal(err)
	}
	if err := ledger.ReserveInstance(3, 1, 100); err != nil {
		t.Fatal(err)
	}
	p.Ledger = ledger
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		res, err := EmbedRANV(p, rng)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solution.Layers[0].Nodes[0] != 2 {
			t.Fatalf("RANV picked exhausted node %d", res.Solution.Layers[0].Nodes[0])
		}
	}
}

func TestBenchmarksFailWhenNoInstanceFeasible(t *testing.T) {
	p := fixture()
	ledger := network.NewLedger(p.Net)
	for _, v := range []graph.NodeID{1, 2, 3} {
		if err := ledger.ReserveInstance(v, 1, 100); err != nil {
			t.Fatal(err)
		}
	}
	p.Ledger = ledger
	if _, err := EmbedMINV(p); !errors.Is(err, core.ErrNoEmbedding) {
		t.Fatalf("MINV err = %v, want ErrNoEmbedding", err)
	}
	if _, err := EmbedRANV(p, rand.New(rand.NewSource(3))); !errors.Is(err, core.ErrNoEmbedding) {
		t.Fatalf("RANV err = %v, want ErrNoEmbedding", err)
	}
}

func TestBenchmarksHandleParallelLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := randomProblem(rng, 50, 6, 5) // layers [3,2]: mergers needed
	res, err := EmbedMINV(p)
	if err != nil {
		t.Skipf("instance infeasible for MINV: %v", err)
	}
	if err := core.Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if len(res.Solution.Layers[0].InnerPaths) != 3 {
		t.Fatalf("first layer inner paths = %d, want 3", len(res.Solution.Layers[0].InnerPaths))
	}
}

func TestBenchmarkSolutionsAlwaysValidProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 40, 6, 1+rng.Intn(6))
		if res, err := EmbedMINV(p); err == nil {
			if err := core.Validate(p, res.Solution); err != nil {
				t.Fatalf("seed %d: MINV invalid: %v", seed, err)
			}
		} else if !errors.Is(err, core.ErrNoEmbedding) {
			t.Fatalf("seed %d: MINV unexpected error %v", seed, err)
		}
		if res, err := EmbedRANV(p, rng); err == nil {
			if err := core.Validate(p, res.Solution); err != nil {
				t.Fatalf("seed %d: RANV invalid: %v", seed, err)
			}
		} else if !errors.Is(err, core.ErrNoEmbedding) {
			t.Fatalf("seed %d: RANV unexpected error %v", seed, err)
		}
	}
}

func TestMINVInvalidProblemRejected(t *testing.T) {
	p := fixture()
	p.Rate = -1
	if _, err := EmbedMINV(p); err == nil {
		t.Fatal("invalid problem accepted")
	}
}
