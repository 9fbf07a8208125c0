package graph

import (
	"math"
	"sync/atomic"
)

// CostView is a compiled snapshot of one (Graph, CostOptions, residual
// state) triple, flattened into dense arrays aligned with the CSR arc
// array so the search kernels run branch-light with zero map lookups and
// zero indirect calls per relaxed arc:
//
//   - price[i] is the traversal price of arc i, or +Inf when the arc is
//     inadmissible under the compiled options. Relaxation needs no
//     admissibility branch at all: Inf + d never improves any distance.
//   - admit is an admissibility bitset over arcs, for callers (hop
//     searches, the layer-extension builder) that need the yes/no answer
//     without conflating it with an edge whose real price is +Inf.
//   - nodeBan is a bitset of banned nodes (empty when none are banned).
//
// Compilation also sizes the bucketed delta-stepping queue: delta is
// auto-tuned from the admissible price distribution (see tuneBuckets), and
// a zero delta routes the search to the 4-ary heap fallback for degenerate
// price ranges (all-zero, non-finite, or no admissible arcs).
//
// A CostView is immutable after compilation and safe to share across
// goroutines. Compilation reads the residual state only through the
// capacity-floor comparison and prices are static, so everything in a view
// — and every tree searched on it — is a function of the CSR arrays it was
// compiled over, admit and nodeBan alone: two views equal in those are
// interchangeable whatever ledger state produced them (see TreeCache).
type CostView struct {
	arcs []Arc
	off  []int32

	price   []float64
	admit   []uint64
	nodeBan []uint64 // len 0 when no node is banned

	// trees and order are set only on a view a TreeCache published: the
	// per-source table of Dijkstra trees searched on this view, each slot
	// written once it is computed, and the occupied sources in publication
	// order (guarded by the cache's mutex).
	trees []atomic.Pointer[ShortestTree]
	order []NodeID

	numNodes int
	numArcs  int
	admitted int // admissible arc count

	// maxPrice is the largest finite admissible arc price; delta is the
	// bucket width of the delta-stepping queue derived from it (0 selects
	// the heap fallback), invDelta its reciprocal, and nb the physical
	// bucket count.
	maxPrice float64
	delta    float64
	invDelta float64
	nb       int
}

// Bucket auto-tuning: aim for roughly viewArcsPerBucket admissible arcs
// per bucket width so buckets stay short enough that the per-pop min scan
// is a handful of comparisons, while the cursor never has to step across
// more than a few thousand empty buckets per search. nb gets two spare
// buckets so the live virtual-bucket span (at most units+1 wide, because
// every queued distance is within maxPrice of the current minimum) never
// wraps onto itself.
const (
	viewArcsPerBucket = 8
	viewMinBuckets    = 16
	viewMaxBuckets    = 4096
)

// NumNodes reports the node count of the graph the view was compiled from.
func (v *CostView) NumNodes() int { return v.numNodes }

// NumArcs reports the CSR arc count (2x the edge count).
func (v *CostView) NumArcs() int { return v.numArcs }

// Admitted reports how many arcs the compiled options admit.
func (v *CostView) Admitted() int { return v.admitted }

// Admits reports whether CSR arc i is admissible under the compiled
// options. Arc indices follow the Graph.CSR layout.
func (v *CostView) Admits(i int) bool {
	return v.admit[uint(i)>>6]>>(uint(i)&63)&1 != 0
}

// NodeBanned reports whether node n was banned by the compiled options.
func (v *CostView) NodeBanned(n NodeID) bool {
	if len(v.nodeBan) == 0 {
		return false
	}
	return v.nodeBan[uint(n)>>6]>>(uint(n)&63)&1 != 0
}

// MemBytes reports the memory the view's own arrays pin (the CSR arrays
// belong to the graph).
func (v *CostView) MemBytes() int {
	return 8 * (cap(v.price) + cap(v.admit) + cap(v.nodeBan))
}

// ArcPrice returns the compiled price of arc i (+Inf when inadmissible).
func (v *CostView) ArcPrice(i int) float64 { return v.price[i] }

// CompileView flattens opts against the graph's current CSR adjacency and
// residual state into a freshly allocated, shareable CostView. Use
// CompileViewInto (or DijkstraWith, which compiles internally) when the
// view is consumed before its storage is compiled into again.
func (g *Graph) CompileView(opts *CostOptions) *CostView {
	v := &CostView{}
	g.CompileViewInto(v, opts, nil)
	return v
}

// CompileViewInto compiles opts into v, reusing v's backing arrays and the
// caller's residual buffer; it returns the (possibly grown) residual
// buffer for reuse. v must not be a view a TreeCache published, and
// whoever holds v sees the new compilation. One call fills the residual
// buffer (opts.Residual's EdgeResiduals, or the static capacities), then one
// pass over arcs derives admissibility, the Inf-sentinel price array, and
// the bucket tuning inputs.
func (g *Graph) CompileViewInto(v *CostView, opts *CostOptions, resBuf []float64) []float64 {
	arcs, off := g.CSR()
	m := len(arcs)
	v.arcs, v.off = arcs, off
	v.numNodes, v.numArcs = g.n, m

	if cap(v.price) < m {
		v.price = make([]float64, m)
	} else {
		v.price = v.price[:m]
	}
	words := (m + 63) / 64
	if cap(v.admit) < words {
		v.admit = make([]uint64, words)
	} else {
		v.admit = v.admit[:words]
	}
	clear(v.admit)
	v.nodeBan = v.nodeBan[:0]

	// Residual capacities, one slot per edge, only when a capacity floor is
	// active. The residual source agrees bitwise with its per-edge answers,
	// so the capa < MinCapacity comparison below is bitwise identical to the
	// per-arc admits path.
	var minCap float64
	var res []float64
	if opts != nil && opts.MinCapacity > 0 {
		minCap = opts.MinCapacity
		ne := len(g.edges)
		if cap(resBuf) < ne {
			resBuf = make([]float64, ne)
		} else {
			resBuf = resBuf[:ne]
		}
		if opts.Residual != nil {
			resBuf = opts.Residual.EdgeResiduals(resBuf)
		} else {
			for e := range resBuf {
				resBuf[e] = g.edges[e].Capacity
			}
		}
		res = resBuf
	}

	var banEdges map[EdgeID]bool
	var banNodes map[NodeID]bool
	if opts != nil {
		banEdges = opts.BannedEdges
		banNodes = opts.BannedNodes
	}
	if len(banNodes) > 0 {
		nw := (g.n + 63) / 64
		if cap(v.nodeBan) < nw {
			v.nodeBan = make([]uint64, nw)
		} else {
			v.nodeBan = v.nodeBan[:nw]
			clear(v.nodeBan)
		}
		any := false
		for n, on := range banNodes {
			if on && n >= 0 && int(n) < g.n {
				v.nodeBan[uint(n)>>6] |= 1 << (uint(n) & 63)
				any = true
			}
		}
		if !any {
			v.nodeBan = v.nodeBan[:0]
		}
	}

	admitted := 0
	maxP := 0.0
	for i, arc := range arcs {
		ok := true
		if len(banEdges) > 0 && banEdges[arc.Edge] {
			ok = false
		} else if len(v.nodeBan) > 0 && v.NodeBanned(arc.To) {
			ok = false
		} else if res != nil && res[arc.Edge] < minCap {
			ok = false
		}
		if !ok {
			v.price[i] = Inf
			continue
		}
		v.admit[uint(i)>>6] |= 1 << (uint(i) & 63)
		admitted++
		p := g.edges[arc.Edge].Price
		v.price[i] = p
		if p > maxP {
			maxP = p
		}
	}
	v.admitted = admitted
	v.maxPrice = maxP
	v.tuneBuckets()
	return resBuf
}

// tuneBuckets derives the delta-stepping bucket width from the compiled
// price distribution. Degenerate views — nothing admissible, an all-zero
// price range, or a non-finite maximum price — get delta 0, which routes
// the search to the 4-ary heap fallback (both structures pop in the same
// strict (dist, node) order, so the choice cannot fork results).
func (v *CostView) tuneBuckets() {
	if v.admitted == 0 || v.maxPrice <= 0 || math.IsInf(v.maxPrice, 1) || math.IsNaN(v.maxPrice) {
		v.delta, v.invDelta, v.nb = 0, 0, 0
		return
	}
	units := v.admitted / viewArcsPerBucket
	if units < viewMinBuckets {
		units = viewMinBuckets
	}
	if units > viewMaxBuckets {
		units = viewMaxBuckets
	}
	v.delta = v.maxPrice / float64(units)
	v.invDelta = 1 / v.delta
	v.nb = units + 2
}
