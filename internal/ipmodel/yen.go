package ipmodel

import (
	"sort"

	"dagsfc/internal/graph"
)

// kShortestPaths returns up to k cheapest loopless paths from src to dst in
// ascending price order, using Yen's algorithm. It honors the capacity
// filter of opts (bans in opts are combined with Yen's own spur bans).
//
// The embedding model enumerates the real-path set P^a_b between two nodes;
// in practice only a few cheapest members matter, which is exactly what
// this produces. For src == dst the single empty path is returned.
func kShortestPaths(g *graph.Graph, src, dst graph.NodeID, k int, opts *graph.CostOptions) []graph.Path {
	n := graph.NodeID(g.NumNodes())
	if k <= 0 || src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	if src == dst {
		return []graph.Path{graph.EmptyPath(src)}
	}
	// The first path's options and every spur's compile into one kept view.
	var view graph.CostView
	var res []float64
	sc := graph.GetScratch()
	defer graph.PutScratch(sc)
	minCostPath := func(from graph.NodeID, o *graph.CostOptions) (graph.Path, bool) {
		res = g.CompileViewInto(&view, o, res)
		return view.DijkstraWith(sc, from).PathTo(dst)
	}
	first, ok := minCostPath(src, opts)
	if !ok {
		return nil
	}
	paths := []graph.Path{first}
	// candidates holds spur paths not yet promoted, kept sorted by cost.
	var candidates []yenCand
	// The spur searches' ban sets, refilled per spur node. The search reads
	// its options through an interface, so the maps escape: one pair serves
	// the whole enumeration.
	banEdges, banNodes := map[graph.EdgeID]bool{}, map[graph.NodeID]bool{}

	for len(paths) < k {
		prev := paths[len(paths)-1]
		prevNodes := prev.Nodes(g)
		// Each node of the previous path except the last is a spur node.
		for i := 0; i < len(prevNodes)-1; i++ {
			spur := prevNodes[i]
			// Read-only, and Concat copies it: a window of prev will do.
			root := graph.Path{From: src, Edges: prev.Edges[:i:i]}

			clear(banEdges)
			clear(banNodes)
			if opts != nil {
				for e := range opts.BannedEdges {
					banEdges[e] = true
				}
				for v := range opts.BannedNodes {
					banNodes[v] = true
				}
			}
			// Ban edges that would recreate an already-found path sharing
			// this root.
			for _, p := range paths {
				if len(p.Edges) > i && pathPrefixEqual(p, root, i) {
					banEdges[p.Edges[i]] = true
				}
			}
			// Ban root nodes (except the spur node) to keep paths simple.
			for _, v := range prevNodes[:i] {
				banNodes[v] = true
			}

			spurOpts := &graph.CostOptions{BannedEdges: banEdges, BannedNodes: banNodes}
			if opts != nil {
				spurOpts.MinCapacity = opts.MinCapacity
				spurOpts.Residual = opts.Residual
			}
			spurPath, ok := minCostPath(spur, spurOpts)
			if !ok {
				continue
			}
			total := root.Concat(g, spurPath)
			if containsPath(paths, total) || containsCand(candidates, total) {
				continue
			}
			candidates = append(candidates, yenCand{path: total, cost: total.Cost(g)})
		}
		if len(candidates) == 0 {
			break
		}
		sort.SliceStable(candidates, func(a, b int) bool { return candidates[a].cost < candidates[b].cost })
		paths = append(paths, candidates[0].path)
		candidates = candidates[1:]
	}
	return paths
}

func pathPrefixEqual(p, root graph.Path, n int) bool {
	if p.From != root.From {
		return false
	}
	for j := 0; j < n; j++ {
		if p.Edges[j] != root.Edges[j] {
			return false
		}
	}
	return true
}

func containsPath(paths []graph.Path, p graph.Path) bool {
	for _, q := range paths {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

type yenCand struct {
	path graph.Path
	cost float64
}

func containsCand(cands []yenCand, p graph.Path) bool {
	for _, c := range cands {
		if c.path.Equal(p) {
			return true
		}
	}
	return false
}
