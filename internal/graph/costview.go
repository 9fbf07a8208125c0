package graph

import (
	"math"
	"math/bits"
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
// a zero delta leaves a search on its tree's own frontier heap for
// degenerate price ranges (all-zero, non-finite, or no admissible arcs).
//
// A CostView is immutable after compilation and safe to share across
// goroutines. Compilation reads the residual state only through the
// capacity-floor comparison and prices are static, so everything in a view
// — and every tree searched on it — is a function of the CSR arrays it was
// compiled over, admit and nodeBan alone: two views equal in those are
// interchangeable whatever ledger state produced them (see TreeStore).
type CostView struct {
	arcs []Arc
	off  []int32

	price   []float64
	admit   []uint64
	nodeBan []uint64 // len 0 when no node is banned

	numNodes int
	numArcs  int
	admitted int // admissible arc count

	// maxPrice is the largest finite admissible arc price; delta is the
	// bucket width of the delta-stepping queue derived from it (0 selects
	// the tree's own heap), invDelta its reciprocal, and nb the size of the
	// queue's ring, a power of two.
	maxPrice float64
	delta    float64
	invDelta float64
	nb       int
}

// Bucket auto-tuning: aim for roughly viewArcsPerBucket admissible arcs
// per bucket width so buckets stay short enough that the per-pop min scan
// is a handful of comparisons. The queue's ring is the smallest power of
// two, at least viewMinRing, that holds units+2 buckets — the live
// virtual-bucket span is at most units+1 wide, because every queued
// distance is within maxPrice of the current minimum, so it never wraps
// onto itself — and the bucket width then spreads maxPrice over all of the
// ring but those two spares: empty buckets cost the queue's bitmap nothing.
const (
	viewArcsPerBucket = 8
	viewMinBuckets    = 16
	viewMaxBuckets    = 4094 // a ring of 4096
	viewMinRing       = 64   // one bitmap word
)

// NumNodes reports the node count of the graph the view was compiled from.
func (v *CostView) NumNodes() int { return v.numNodes }

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

// CompileView flattens opts against the graph's current CSR adjacency and
// residual state into a freshly allocated, shareable CostView. Use
// CompileViewInto when the view is consumed before its storage is compiled
// into again.
func (g *Graph) CompileView(opts *CostOptions) *CostView {
	v := &CostView{}
	g.CompileViewInto(v, opts, nil)
	return v
}

// CompileViewInto compiles opts into v, reusing v's backing arrays and the
// caller's residual buffer; it returns the (possibly grown) residual
// buffer for reuse. Whoever holds v sees the new compilation, and a tree
// grown on v must not be read or resumed after it. One call fills the residual
// buffer (opts.Residual's EdgeResiduals, or the static capacities), then one
// pass over arcs derives admissibility, the Inf-sentinel price array, and
// the bucket tuning inputs.
func (g *Graph) CompileViewInto(v *CostView, opts *CostOptions, resBuf []float64) []float64 {
	// Residual capacities, one slot per edge, only when a capacity floor is
	// active.
	var res []float64
	if opts != nil && opts.MinCapacity > 0 {
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
	v.compile(g, opts, res)
	return resBuf
}

// compile is CompileViewInto over a residual row already read: res[e] is
// edge e's residual, read only under a capacity floor.
func (v *CostView) compile(g *Graph, opts *CostOptions, res []float64) {
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

	var minCap float64
	var banEdges map[EdgeID]bool
	var banNodes map[NodeID]bool
	if opts != nil {
		minCap = opts.MinCapacity
		banEdges = opts.BannedEdges
		banNodes = opts.BannedNodes
	}
	if minCap <= 0 {
		res = nil
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
}

// admitsAsCompiled reports whether compiling opts, which ban nothing, over
// residual row res on g would give v: same CSR arrays, no banned node and
// the same admit bit for every arc, compared a word at a time. Prices are
// static, so a view that admits the same arcs is the view the compilation
// would give, bit for bit, and every tree grown on it stays valid. Options
// with bans are never compared: it reports false. The CSR arrays v holds
// stay alive with it, so their address cannot be reused by another graph.
func (v *CostView) admitsAsCompiled(g *Graph, opts *CostOptions, res []float64) bool {
	var minCap float64
	if opts != nil {
		if len(opts.BannedEdges) > 0 || len(opts.BannedNodes) > 0 {
			return false
		}
		minCap = opts.MinCapacity
	}
	arcs, off := g.CSR()
	if v.numNodes != g.n || len(v.arcs) != len(arcs) || len(v.off) != len(off) || len(v.nodeBan) != 0 ||
		(len(arcs) > 0 && &v.arcs[0] != &arcs[0]) {
		return false
	}
	for w, bits := range v.admit {
		lo := w * 64
		word := ^uint64(0) >> (64 - min(64, len(arcs)-lo))
		if minCap > 0 {
			for i, arc := range arcs[lo:min(lo+64, len(arcs))] {
				if res[arc.Edge] < minCap {
					word &^= 1 << i
				}
			}
		}
		if word != bits {
			return false
		}
	}
	return true
}

// tuneBuckets derives the delta-stepping bucket width from the compiled
// price distribution. Degenerate views — nothing admissible, an all-zero
// price range, or a non-finite maximum price — get delta 0, which leaves
// the search on its tree's own frontier heap (both pop in the same strict
// (dist, node) order, so the choice cannot fork results).
func (v *CostView) tuneBuckets() {
	if v.admitted == 0 || v.maxPrice <= 0 || math.IsInf(v.maxPrice, 1) || math.IsNaN(v.maxPrice) {
		v.delta, v.invDelta, v.nb = 0, 0, 0
		return
	}
	units := min(max(v.admitted/viewArcsPerBucket, viewMinBuckets), viewMaxBuckets)
	v.nb = max(viewMinRing, 1<<bits.Len(uint(units+1)))
	v.delta = v.maxPrice / float64(v.nb-2)
	v.invDelta = 1 / v.delta
}
