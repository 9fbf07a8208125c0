package graph

// TwoEdgeConnected reports whether src and dst are joined by two paths that
// share no edge, among the edges admit accepts. It is a unit-capacity
// max-flow cut off at two: one breadth-first path, then a second search of
// the residual graph, in which an edge of the first path may only be
// crossed against the direction the path took it. (Deleting the first path
// outright would miss the pairs that must undo part of it.) A node is
// 2-edge-connected to itself. The searches run on s and allocate nothing
// once it has grown to the graph.
func (g *Graph) TwoEdgeConnected(s *Scratch, src, dst NodeID, admit func(EdgeID) bool) bool {
	if g.checkNode(src) != nil || g.checkNode(dst) != nil {
		return false
	}
	if src == dst {
		return true
	}
	arcs, off := g.CSR()
	s.growParents(g.n)
	if len(s.pathOut) < g.n {
		s.pathOut = make([]EdgeID, g.n)
		for i := range s.pathOut {
			s.pathOut[i] = None
		}
	}
	// reach searches for dst from src, skipping the arcs the first path
	// took (none while pathOut is blank) and recording parents.
	reach := func() bool {
		s.visitedReset(g.n)
		s.visit(src)
		queue := append(s.queue[:0], src)
		defer func() { s.queue = queue[:0] }()
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			for _, arc := range arcs[off[v]:off[v+1]] {
				if s.visited(arc.To) || arc.Edge == s.pathOut[v] || !admit(arc.Edge) {
					continue
				}
				s.visit(arc.To)
				s.parentEdge[arc.To], s.parentNode[arc.To] = arc.Edge, v
				if arc.To == dst {
					return true
				}
				queue = append(queue, arc.To)
			}
		}
		return false
	}
	if !reach() {
		return false
	}
	for u := dst; u != src; u = s.parentNode[u] {
		s.pathOut[s.parentNode[u]] = s.parentEdge[u]
	}
	// The second search overwrites parents, but only of nodes it reaches
	// after the marks are in place; the marks are what it reads.
	second := reach()
	for v := range s.pathOut[:g.n] {
		s.pathOut[v] = None
	}
	return second
}
