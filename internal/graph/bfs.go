package graph

import "slices"

// AppendMinHopPath appends onto buf, in src-to-dst order as AppendPathTo
// does, the edges of a path from src to dst with the fewest links the view
// admits; among equal-hop paths the one found first in adjacency order
// wins. The delay-bounded embedding mode uses it as the propagation-optimal
// alternative to min-cost paths. It allocates only when buf lacks
// capacity; ok is false (and buf is returned unchanged) when dst is
// unreachable or src is out of range or banned.
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
