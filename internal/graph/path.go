package graph

import (
	"fmt"
	"strings"
)

// Path is a walk through the network: a start node followed by a sequence
// of edge IDs, each incident to the node reached so far. The empty path
// (no edges) is valid and represents a meta-path whose two endpoints are
// embedded on the same network node — it costs nothing and consumes no
// bandwidth, matching the paper's model where co-located VNFs need no
// real-path.
//
// A Path corresponds to the paper's "real-path" p^a_{b,ρ} that implements a
// meta-path of the DAG-SFC.
type Path struct {
	From  NodeID
	Edges []EdgeID
}

// EmptyPath returns the zero-length path anchored at v.
func EmptyPath(v NodeID) Path { return Path{From: v} }

// Len reports the number of links on the path (the paper's β).
func (p Path) Len() int { return len(p.Edges) }

// To returns the final node of the path.
func (p Path) To(g *Graph) NodeID {
	v := p.From
	for _, id := range p.Edges {
		v = g.Edge(id).Other(v)
	}
	return v
}

// Nodes returns the full node sequence, length Len()+1.
func (p Path) Nodes(g *Graph) []NodeID {
	nodes := make([]NodeID, 0, len(p.Edges)+1)
	v := p.From
	nodes = append(nodes, v)
	for _, id := range p.Edges {
		v = g.Edge(id).Other(v)
		nodes = append(nodes, v)
	}
	return nodes
}

// Cost sums the link prices along the path.
func (p Path) Cost(g *Graph) float64 {
	var c float64
	for _, id := range p.Edges {
		c += g.Edge(id).Price
	}
	return c
}

// Validate checks that every edge exists and is incident to the running
// endpoint, i.e. that p is a contiguous walk in g.
func (p Path) Validate(g *Graph) error {
	if err := g.checkNode(p.From); err != nil {
		return err
	}
	v := p.From
	for i, id := range p.Edges {
		if id < 0 || int(id) >= g.NumEdges() {
			return fmt.Errorf("graph: path edge %d: id %d out of range", i, id)
		}
		e := g.Edge(id)
		switch v {
		case e.A:
			v = e.B
		case e.B:
			v = e.A
		default:
			return fmt.Errorf("graph: path edge %d (%d-%d) not incident to node %d", i, e.A, e.B, v)
		}
	}
	return nil
}

// Simple reports whether the path visits no node twice (a loopless path).
func (p Path) Simple(g *Graph) bool {
	seen := map[NodeID]bool{p.From: true}
	v := p.From
	for _, id := range p.Edges {
		v = g.Edge(id).Other(v)
		if seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// Reverse returns the same walk traversed from the far end.
func (p Path) Reverse(g *Graph) Path {
	r := Path{From: p.To(g), Edges: make([]EdgeID, len(p.Edges))}
	for i, id := range p.Edges {
		r.Edges[len(p.Edges)-1-i] = id
	}
	return r
}

// Concat appends q to p. It panics if q does not start where p ends.
func (p Path) Concat(g *Graph, q Path) Path {
	if p.To(g) != q.From {
		panic(fmt.Sprintf("graph: cannot concat path ending at %d with path starting at %d", p.To(g), q.From))
	}
	edges := make([]EdgeID, 0, len(p.Edges)+len(q.Edges))
	edges = append(edges, p.Edges...)
	edges = append(edges, q.Edges...)
	return Path{From: p.From, Edges: edges}
}

// Equal reports whether two paths are identical walks.
func (p Path) Equal(q Path) bool {
	if p.From != q.From || len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// String renders the node sequence of the path; it needs the graph to
// resolve edges, so it takes one explicitly rather than implementing
// fmt.Stringer.
func (p Path) String(g *Graph) string {
	var b strings.Builder
	for i, v := range p.Nodes(g) {
		if i > 0 {
			b.WriteString("->")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	return b.String()
}
