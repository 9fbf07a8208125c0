package core

import (
	"context"
	"math/rand"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// embedReference is Embed with a reference path switched on: set flips
// perLayer, undirected or perLeafClosure on the embedder before it runs. The
// one way those switches are ever set.
func embedReference(p *Problem, opts Options, set func(e *embedder)) (*Result, error) {
	sc := acquireScratch()
	defer releaseScratch(sc)
	e := newEmbedder(context.Background(), p, opts, sc)
	set(e)
	return e.run()
}

// testSearch is runSearch for tests that call it directly: it reads the
// residual rows and compiles the capacity-only view off the problem's
// ledger (or a fresh empty one, leaving p untouched), as newEmbedder does.
func testSearch(p *Problem, start graph.NodeID, cfg searchConfig) *SearchTree {
	ledger := p.ledgerOrFresh()
	res := readResiduals(ledger, nil, nil)
	cfg.res, cfg.view = &res, p.Net.G.CompileView(ledger.CostOptions(p.Rate))
	return runSearch(p, start, cfg)
}

// lineFixture builds the hand-checkable instance used by the cost and
// validation tests:
//
//	0 --1-- 1 --2-- 2 --3-- 3        (edge prices)
//
// with f(1)@1 ($10), f(2)@2 ($20), f(3)@1 ($30), f(3)@3 ($12),
// merger@2 ($5), and SFC [f1] -> [f2|f3 +m], src 0, dst 3.
func lineFixture() *Problem {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10) // e0
	g.MustAddEdge(1, 2, 2, 10) // e1
	g.MustAddEdge(2, 3, 3, 10) // e2
	net := network.New(g, network.Catalog{N: 3})
	net.MustAddInstance(1, 1, 10, 10)
	net.MustAddInstance(2, 2, 20, 10)
	net.MustAddInstance(1, 3, 30, 10)
	net.MustAddInstance(3, 3, 12, 10)
	net.MustAddInstance(2, network.VNFID(4), 5, 10) // merger
	return &Problem{
		Net: net,
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{
			{VNFs: []network.VNFID{1}},
			{VNFs: []network.VNFID{2, 3}},
		}},
		Src: 0, Dst: 3, Rate: 1, Size: 1,
	}
}

// lineSolution is the manual embedding of lineFixture used as the cost
// fixture: f(1)@1, f(2)@2, f(3)@1, merger@2.
func lineSolution() *Solution {
	return &Solution{
		Layers: []LayerEmbedding{
			{
				Nodes:      []graph.NodeID{1},
				MergerNode: 1,
				InterPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{0}}},
			},
			{
				Nodes:      []graph.NodeID{2, 1},
				MergerNode: 2,
				InterPaths: []graph.Path{
					{From: 1, Edges: []graph.EdgeID{1}}, // 1->2 for f(2)
					{From: 1},                           // stays at 1 for f(3)
				},
				InnerPaths: []graph.Path{
					{From: 2},                           // f(2) co-located with merger
					{From: 1, Edges: []graph.EdgeID{1}}, // f(3): 1->2
				},
			},
		},
		TailPath: graph.Path{From: 2, Edges: []graph.EdgeID{2}},
	}
}

// fromWidths builds a DAG-SFC from explicit layer contents.
func fromWidths(layers [][]network.VNFID) sfc.DAGSFC {
	s := sfc.DAGSFC{Layers: make([]sfc.Layer, len(layers))}
	for i, vnfs := range layers {
		s.Layers[i] = sfc.Layer{VNFs: vnfs}
	}
	return s
}

// randomProblem draws a small random instance suitable for exhaustive
// cross-checks: ~nodes nodes, a few VNF kinds, and a random DAG-SFC.
func randomProblem(rng *rand.Rand, nodes, kinds, sfcSize int) *Problem {
	cfg := netgen.Default()
	cfg.Nodes = nodes
	cfg.VNFKinds = kinds
	cfg.Connectivity = 4
	net := netgen.MustGenerate(cfg, rng)
	s := sfcgen.MustGenerate(sfcgen.Config{Size: sfcSize, LayerWidth: 3, VNFKinds: kinds}, rng)
	src := graph.NodeID(rng.Intn(nodes))
	dst := graph.NodeID(rng.Intn(nodes))
	return &Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1}
}
