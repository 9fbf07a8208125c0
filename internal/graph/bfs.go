package graph

import "slices"

// MinHopPath returns a path from src to dst with the fewest links,
// honoring opts (capacity filters, bans); among equal-hop paths the one
// found first in adjacency order is returned. The delay-bounded embedding
// mode uses this as the propagation-optimal alternative to min-cost
// paths. ok is false if dst is unreachable.
func (g *Graph) MinHopPath(src, dst NodeID, opts *CostOptions) (Path, bool) {
	s := GetScratch()
	defer PutScratch(s)
	return g.MinHopPathWith(s, src, dst, opts)
}

// MinHopPathWith is MinHopPath running on caller-provided scratch memory;
// the returned Path is freshly allocated and independent of s.
func (g *Graph) MinHopPathWith(s *Scratch, src, dst NodeID, opts *CostOptions) (Path, bool) {
	if g.checkNode(src) != nil || g.checkNode(dst) != nil {
		return Path{}, false
	}
	if src == dst {
		return EmptyPath(src), true
	}
	if opts != nil && opts.BannedNodes[src] {
		return Path{}, false
	}
	arcs, off := g.CSR()
	s.visitedReset(g.n)
	s.growParents(g.n)
	s.visit(src)
	queue := s.queue[:0]
	queue = append(queue, src)
	defer func() { s.queue = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, arc := range arcs[off[v]:off[v+1]] {
			if s.visited(arc.To) || !opts.admits(g, arc) {
				continue
			}
			s.visit(arc.To)
			s.parentEdge[arc.To] = arc.Edge
			s.parentNode[arc.To] = v
			if arc.To == dst {
				hops := 0
				for u := dst; u != src; u = s.parentNode[u] {
					hops++
				}
				edges := make([]EdgeID, hops)
				for u := dst; u != src; u = s.parentNode[u] {
					hops--
					edges[hops] = s.parentEdge[u]
				}
				return Path{From: src, Edges: edges}, true
			}
			queue = append(queue, arc.To)
		}
	}
	return Path{}, false
}

// AppendMinHopPath is MinHopPath against a compiled cost view, its edges
// appended onto buf in src-to-dst order as AppendPathTo does: admissibility
// comes from the view's arc bitset instead of per-arc map lookups, giving
// the path Graph.MinHopPathWith finds under the options the view was
// compiled from. It allocates only when buf lacks capacity; ok is false
// (and buf is returned unchanged) when dst is unreachable.
func (view *CostView) AppendMinHopPath(s *Scratch, buf []EdgeID, src, dst NodeID) (_ []EdgeID, ok bool) {
	n := view.numNodes
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return buf, false
	}
	if src == dst {
		return buf, true
	}
	if view.NodeBanned(src) {
		return buf, false
	}
	arcs, off := view.arcs, view.off
	s.visitedReset(n)
	s.growParents(n)
	s.lastA = view.numArcs
	s.visit(src)
	queue := s.queue[:0]
	queue = append(queue, src)
	defer func() { s.queue = queue[:0] }()
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for ai := int(off[v]); ai < int(off[v+1]); ai++ {
			to := arcs[ai].To
			if s.visited(to) || !view.Admits(ai) {
				continue
			}
			s.visit(to)
			s.parentEdge[to] = arcs[ai].Edge
			s.parentNode[to] = v
			if to == dst {
				start := len(buf)
				for u := dst; u != src; u = s.parentNode[u] {
					buf = append(buf, s.parentEdge[u])
				}
				slices.Reverse(buf[start:])
				return buf, true
			}
			queue = append(queue, to)
		}
	}
	return buf, false
}
