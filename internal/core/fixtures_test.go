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

// dijkstra is the complete min-cost tree from src on g under opts, on a view
// compiled for it alone; the tree owns its scratch, so it may be kept.
func dijkstra(g *graph.Graph, src graph.NodeID, opts *graph.CostOptions) *graph.ShortestTree {
	return g.CompileView(opts).DijkstraWith(graph.NewScratch(), src)
}

// hostsOf lists the nodes hosting category f, ascending: the finite entries
// of its rent row.
func hostsOf(net *network.Network, f network.VNFID) []graph.NodeID {
	var out []graph.NodeID
	for v, rent := range net.Rents(f) {
		if rent < graph.Inf {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// embedReference is Embed with a reference path switched on: set flips one
// of the embedder's switches before it runs — perLayer (every layer through
// the per-layer search), undirected (no potential for a terminal layered
// run), perLeafClosure (a tree per leaf) or eager (Algorithm 1 under the
// run's options). The one way those switches are ever set.
func embedReference(p *Problem, opts Options, set func(e *embedder)) (*Result, error) {
	sc := acquireScratch()
	defer releaseScratch(sc)
	e := newEmbedder(context.Background(), p, opts, sc)
	set(e)
	return e.run()
}

// allCandidates builds start's candidate list for spec and reads it to the
// end.
func allCandidates(e *embedder, spec LayerSpec, start graph.NodeID) []*extension {
	cl := candidateList{spec: spec, start: start}
	for e.candidate(&cl, len(cl.exts), nil) != nil {
	}
	return cl.exts
}

// testSearch is runSearch for tests that call it directly: it reads the
// residual rows and compiles the capacity-only view off the problem's
// ledger (or a fresh empty one, leaving p untouched), as newEmbedder does.
func testSearch(p *Problem, start graph.NodeID, cfg searchConfig) *SearchTree {
	ledger := p.LedgerOrFresh()
	res := readResiduals(ledger, nil, nil)
	cfg.res, cfg.view = &res, p.Net.G.CompileView(ledger.CostOptions(p.Rate))
	return runSearch(p, start, cfg)
}

// lineFixture is netgen.Line with the SFC [f1] -> [f2|f3 +m] from 0 to 3.
func lineFixture() *Problem {
	return &Problem{Net: netgen.Line(), SFC: fromWidths([][]network.VNFID{{1}, {2, 3}}), Src: 0, Dst: 3, Rate: 1, Size: 1}
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
	s, src, dst := sfcgen.MustFlow(sfcgen.Config{Size: sfcSize, LayerWidth: 3, VNFKinds: kinds}, nodes, rng)
	return &Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1}
}
