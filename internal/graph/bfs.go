package graph

// BFSLevels runs a breadth-first search from src and returns the hop level
// of every node (-1 for unreachable). Level 0 is src itself. This is the
// primitive behind the paper's forward/backward search iterations I^F_l and
// I^B_l: iteration q discovers exactly the nodes at level q-1.
func (g *Graph) BFSLevels(src NodeID) []int {
	return g.BFSLevelsWithin(src, nil)
}

// BFSLevelsWithin is BFSLevels restricted to the nodes for which allow
// returns true (src is always allowed). A nil allow permits every node.
// The backward search of BBE uses this with the forward search node set as
// the allowed region (§4.3.1).
func (g *Graph) BFSLevelsWithin(src NodeID, allow func(NodeID) bool) []int {
	level := make([]int, g.n)
	for i := range level {
		level[i] = -1
	}
	if g.checkNode(src) != nil {
		return level
	}
	arcs, off := g.CSR()
	level[src] = 0
	queue := make([]NodeID, 1, g.n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, arc := range arcs[off[v]:off[v+1]] {
			w := arc.To
			if level[w] >= 0 {
				continue
			}
			if allow != nil && !allow(w) {
				continue
			}
			level[w] = level[v] + 1
			queue = append(queue, w)
		}
	}
	return level
}

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

// MinHopPathWith is MinHopPath against a compiled cost view: admissibility
// comes from the view's arc bitset instead of per-arc map lookups, giving
// identical results to Graph.MinHopPathWith under the options the view was
// compiled from. The returned Path is freshly allocated and independent
// of s.
func (view *CostView) MinHopPathWith(s *Scratch, src, dst NodeID) (Path, bool) {
	n := view.numNodes
	if src < 0 || int(src) >= n || dst < 0 || int(dst) >= n {
		return Path{}, false
	}
	if src == dst {
		return EmptyPath(src), true
	}
	if view.NodeBanned(src) {
		return Path{}, false
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
			queue = append(queue, to)
		}
	}
	return Path{}, false
}
