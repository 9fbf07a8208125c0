// Package graph provides the weighted, bidirectional multigraph that models
// the target cloud network of the DAG-SFC embedding problem, together with
// the path algorithms (BFS, capacity-filtered Dijkstra, Yen k-shortest
// paths) every embedding algorithm in this repository is built on.
//
// Links are bidirectional, as in the paper's network model (§3.2): a single
// Edge is traversable in both directions and its price and bandwidth
// capacity apply to either direction.
package graph

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
)

// NodeID identifies a network node. Nodes are dense integers in [0, N).
type NodeID int

// EdgeID identifies a network link. Edges are dense integers in [0, M).
type EdgeID int

// None is the sentinel for "no node" / "no edge".
const None = -1

// Grain is the unit every capacity amount is a whole multiple of — link and
// instance capacities, flow rates, reservations and quarantines — and
// MaxAmount bounds any one of them. A capacity row then holds at most 2⁵²
// grains, so the ledger's sums and differences are exact: its rows are a
// function of what it holds, whatever order it was filled and emptied in.
const (
	Grain     = 0x1p-20
	MaxAmount = 0x1p32
)

// ToGrid rounds x to the nearest multiple of Grain: where a rate enters the
// program from outside.
func ToGrid(x float64) float64 { return math.Round(x/Grain) * Grain }

// OnGrid reports whether x is a capacity amount: a multiple of Grain in
// [0, MaxAmount]. NaN and the infinities are not.
func OnGrid(x float64) bool { return x >= 0 && x <= MaxAmount && ToGrid(x) == x }

// Edge is a bidirectional network link with a price per unit of traffic
// delivery rate (c_e in the paper) and a bandwidth capacity (r_e).
type Edge struct {
	ID       EdgeID
	A, B     NodeID
	Price    float64
	Capacity float64
}

// Other returns the endpoint of e that is not v. It panics if v is not an
// endpoint of e.
func (e Edge) Other(v NodeID) NodeID {
	switch v {
	case e.A:
		return e.B
	case e.B:
		return e.A
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %d (%d-%d)", v, e.ID, e.A, e.B))
}

// Arc is one directed half of an Edge as seen from one of its endpoints.
type Arc struct {
	Edge EdgeID
	To   NodeID
}

// Graph is a bidirectional multigraph over nodes [0, N). The zero value is
// an empty graph with no nodes; use New to create one with nodes.
//
// The edge list is the graph, and the CSR built from it its one adjacency,
// cached behind an atomic pointer: do not copy a Graph after first use.
type Graph struct {
	n        int
	edges    []Edge
	csr      atomic.Pointer[csrAdj]
	maxPrice float64 // the dearest link's price
	priceSum float64 // every link's price, summed in ID order
}

// csrAdj is the compressed-sparse-row adjacency: one flat arc slice plus
// per-node offsets, node v's arcs at arcs[off[v]:off[v+1]] in ascending
// edge ID — the order Dijkstra's tie-breaking, and every golden, rests on.
type csrAdj struct {
	arcs []Arc
	off  []int32
}

// New returns a graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Graph{n: n}
}

// ErrSelfLoop is returned by AddEdge for an edge with identical endpoints.
var ErrSelfLoop = errors.New("graph: self loop")

// AddEdge inserts a bidirectional link between a and b and returns its ID.
// Parallel edges are permitted (the network model allows multiple priced
// links between the same node pair); self loops are not.
func (g *Graph) AddEdge(a, b NodeID, price, capacity float64) (EdgeID, error) {
	if a == b {
		return None, ErrSelfLoop
	}
	if err := g.checkNode(a); err != nil {
		return None, err
	}
	if err := g.checkNode(b); err != nil {
		return None, err
	}
	if !(price >= 0) || math.IsInf(price, 1) {
		return None, fmt.Errorf("graph: price %v must be finite and non-negative", price)
	}
	if !OnGrid(capacity) {
		return None, fmt.Errorf("graph: capacity %v is not a multiple of 2⁻²⁰ in [0, 2³²]", capacity)
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{ID: id, A: a, B: b, Price: price, Capacity: capacity})
	g.maxPrice = max(g.maxPrice, price)
	g.priceSum += price
	g.csr.Store(nil) // adjacency changed; any cached CSR is stale
	return id, nil
}

// MustAddEdge is AddEdge that panics on error; convenient in tests and
// generators that construct edges from already-validated inputs.
func (g *Graph) MustAddEdge(a, b NodeID, price, capacity float64) EdgeID {
	id, err := g.AddEdge(a, b, price, capacity)
	if err != nil {
		panic(err)
	}
	return id
}

func (g *Graph) checkNode(v NodeID) error {
	if v < 0 || int(v) >= g.n {
		return fmt.Errorf("graph: node %d out of range [0,%d)", v, g.n)
	}
	return nil
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges reports the number of edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// MaxPrice reports the dearest link's price (0 without links).
func (g *Graph) MaxPrice() float64 { return g.maxPrice }

// PriceSum reports the sum of every link's price, added in ID order as the
// links were (0 without links).
func (g *Graph) PriceSum() float64 { return g.priceSum }

// Edges returns the underlying edge slice. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns v's arcs in ascending edge ID: its CSR window, capped so
// an append cannot reach the next node's arcs. The caller must not modify it.
func (g *Graph) Neighbors(v NodeID) []Arc {
	arcs, off := g.CSR()
	return arcs[off[v]:off[v+1]:off[v+1]]
}

// CSR returns the compressed-sparse-row adjacency: the arcs of node v are
// arcs[off[v]:off[v+1]], in ascending edge ID. It is built on first use and
// cached until the next AddEdge; callers must not modify either slice.
// Concurrent readers are safe as long as no edge is being added, matching
// the read-only contract of every other accessor.
func (g *Graph) CSR() (arcs []Arc, off []int32) {
	c := g.csr.Load()
	if c == nil {
		c = g.buildCSR()
		// Concurrent first readers may each build; the contents are
		// identical, so last-store-wins is fine.
		g.csr.Store(c)
	}
	return c.arcs, c.off
}

// buildCSR lays the edges out in ID order: each window ascends by edge ID.
func (g *Graph) buildCSR() *csrAdj {
	off := make([]int32, g.n+1)
	for _, e := range g.edges {
		off[e.A+1]++
		off[e.B+1]++
	}
	for v := 0; v < g.n; v++ {
		off[v+1] += off[v]
	}
	arcs := make([]Arc, off[g.n])
	next := append([]int32(nil), off[:g.n]...)
	for _, e := range g.edges {
		arcs[next[e.A]] = Arc{Edge: e.ID, To: e.B}
		arcs[next[e.B]] = Arc{Edge: e.ID, To: e.A}
		next[e.A]++
		next[e.B]++
	}
	return &csrAdj{arcs: arcs, off: off}
}

// FindEdge returns the cheapest edge between a and b, or (Edge{}, false) if
// none exists.
func (g *Graph) FindEdge(a, b NodeID) (Edge, bool) {
	best, ok := Edge{}, false
	for _, arc := range g.Neighbors(a) {
		if arc.To == b {
			e := g.edges[arc.Edge]
			if !ok || e.Price < best.Price {
				best, ok = e, true
			}
		}
	}
	return best, ok
}

// HasEdge reports whether at least one link joins a and b.
func (g *Graph) HasEdge(a, b NodeID) bool {
	_, ok := g.FindEdge(a, b)
	return ok
}

// Connected reports whether the graph is a single connected component. The
// empty graph and the one-node graph are connected.
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, arc := range g.Neighbors(v) {
			if !seen[arc.To] {
				seen[arc.To] = true
				count++
				stack = append(stack, arc.To)
			}
		}
	}
	return count == g.n
}
