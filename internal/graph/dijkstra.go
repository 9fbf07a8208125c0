package graph

import (
	"math"
	"slices"
)

// Inf is the distance assigned to unreachable nodes.
var Inf = math.Inf(1)

// CostOptions filters and re-weights edges during shortest-path searches.
// The zero value means: use static edge prices, admit every edge.
type CostOptions struct {
	// MinCapacity excludes edges whose (residual) capacity is below this
	// demand. Zero admits all edges.
	MinCapacity float64
	// Residual, when non-nil, overrides Edge.Capacity as the capacity used
	// for the MinCapacity filter. The network layer passes its live
	// capacity ledger here so searches see the "real-time network graph"
	// of Algorithm 1.
	Residual ResidualSource
	// BannedEdges and BannedNodes exclude specific elements; used by Yen's
	// algorithm and by the backup search, which bans its primary's links
	// and nodes. A nil map bans nothing.
	BannedEdges map[EdgeID]bool
	BannedNodes map[NodeID]bool
}

// ResidualSource is the live residual capacity of every edge, read one edge
// at a time by the breadth-first searches and all at once when a view is
// compiled. *network.Ledger is one.
type ResidualSource interface {
	// EdgeResidual returns the residual capacity of edge e.
	EdgeResidual(e EdgeID) float64
	// EdgeResiduals fills dst, which the caller sizes to the edge count,
	// with every edge's residual and returns it, bitwise equal to
	// EdgeResidual edge by edge.
	EdgeResiduals(dst []float64) []float64
}

// admits is the scalar admissibility check, still used by the breadth-
// first searches; the Dijkstra kernels use a compiled CostView instead,
// which gives bitwise-identical answers (CompileViewInto mirrors this logic).
func (o *CostOptions) admits(g *Graph, arc Arc) bool {
	if o == nil {
		return true
	}
	if o.BannedEdges[arc.Edge] || o.BannedNodes[arc.To] {
		return false
	}
	if o.MinCapacity > 0 {
		capa := g.Edge(arc.Edge).Capacity
		if o.Residual != nil {
			capa = o.Residual.EdgeResidual(arc.Edge)
		}
		if capa < o.MinCapacity {
			return false
		}
	}
	return true
}

// ShortestTree is the result of a single-source Dijkstra run: for every
// node, the minimum total link price from the source and the final edge of
// one cheapest path.
type ShortestTree struct {
	Src    NodeID
	Dist   []float64
	parent []EdgeID // edge used to reach node, None for src/unreachable
	prev   []NodeID // predecessor node, None for src/unreachable
}

// clone returns a retainable copy of a scratch-owned tree: three arrays
// and nothing else (the dirty-entry list that lets a scratch reset
// in O(touched) stays with the scratch).
func (t *ShortestTree) clone() *ShortestTree {
	return &ShortestTree{
		Src:    t.Src,
		Dist:   slices.Clone(t.Dist),
		parent: slices.Clone(t.parent),
		prev:   slices.Clone(t.prev),
	}
}

// MemBytes reports the memory the tree's arrays pin, at the 8 bytes an
// element of each takes on the 64-bit platforms this runs on.
func (t *ShortestTree) MemBytes() int {
	return 8 * (cap(t.Dist) + cap(t.parent) + cap(t.prev))
}

// Reachable reports whether v is reachable from the source.
func (t *ShortestTree) Reachable(v NodeID) bool { return !math.IsInf(t.Dist[v], 1) }

// AppendPathTo appends the edge IDs of one cheapest path from the source
// to v onto buf (in source-to-v order) and returns the extended slice. It
// allocates only when buf lacks capacity, which makes it the right
// primitive for hot paths that union or consume edges immediately; use
// PathTo when a retained Path value is wanted. ok is false (and buf is
// returned unchanged) when v is unreachable.
func (t *ShortestTree) AppendPathTo(buf []EdgeID, v NodeID) (_ []EdgeID, ok bool) {
	if !t.Reachable(v) {
		return buf, false
	}
	start := len(buf)
	for u := v; u != t.Src; u = t.prev[u] {
		buf = append(buf, t.parent[u])
	}
	// The parent chain walks v->source; reverse the appended section.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf, true
}

// PathTo reconstructs one cheapest path from the source to v.
func (t *ShortestTree) PathTo(v NodeID) (Path, bool) {
	if !t.Reachable(v) {
		return Path{}, false
	}
	hops := 0
	for u := v; u != t.Src; u = t.prev[u] {
		hops++
	}
	edges, _ := t.AppendPathTo(make([]EdgeID, 0, hops), v)
	return Path{From: t.Src, Edges: edges}, true
}

// Dijkstra computes cheapest paths (by link price) from src to every node,
// honoring opts. It compiles opts into a CostView internally; callers
// running many sources under the same options and residual state should
// compile once with CompileView and search with CostView.DijkstraWith. The returned
// tree is freshly allocated and may be retained indefinitely; use
// DijkstraWith for the allocation-free variant when the result is consumed
// before the next query.
func (g *Graph) Dijkstra(src NodeID, opts *CostOptions) *ShortestTree {
	s := GetScratch()
	t := g.DijkstraWith(s, src, opts).clone()
	PutScratch(s)
	return t
}

// DijkstraWith runs the search kernel from src under the compiled view,
// entirely on scratch memory: zero steady-state allocations once s has
// warmed up to the graph size. The returned tree is owned by s and
// invalidated by the next search on the same Scratch.
func (v *CostView) DijkstraWith(s *Scratch, src NodeID) *ShortestTree {
	s.lastN, s.lastA = v.numNodes, v.numArcs
	s.tree.Reset(v, src)
	t, _ := s.tree.To(s, None)
	return t
}

// MinCostPath returns one cheapest path from src to dst under opts, or
// (Path{}, false) if dst is unreachable. When src == dst it returns the
// empty path.
func (g *Graph) MinCostPath(src, dst NodeID, opts *CostOptions) (Path, bool) {
	if src == dst {
		if g.checkNode(src) != nil {
			return Path{}, false
		}
		return EmptyPath(src), true
	}
	s := GetScratch()
	defer PutScratch(s)
	p, ok := g.DijkstraWith(s, src, opts).PathTo(dst)
	return p, ok
}

type distItem struct {
	node NodeID
	dist float64
}
