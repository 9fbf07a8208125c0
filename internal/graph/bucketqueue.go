package graph

import "math/bits"

// This file implements the two priority structures behind the view-based
// kernels: the bucket queue that sweeps complete trees and the indexed heap
// that a GrowTree's frontier and the layered search share. Both pop in the
// strict total order — ascending (dist, node) — so which structure serves a
// search can never fork its results.
//
// The bucket queue has no decrease-key: the kernel pushes a new entry on
// every strict improvement and the queue drops superseded entries lazily
// (an entry is stale iff its dist is larger than the current Dist[node]).
// Because pushes happen only on strict improvement, two live entries can
// never share (dist, node), which is what makes the pop order a total
// order. The indexed heap lowers a queued node in place instead.

// before is the kernel-wide pop order: ascending key (a distance), ties
// broken by the smaller node ID. This replaces the old reliance on
// container/heap sift order, making tie-breaking an explicit,
// structure-independent contract.
func before(ka float64, a int32, kb float64, b int32) bool {
	return ka < kb || ka == kb && a < b
}

// before is the pop order over queued entries.
func (a distItem) before(b distItem) bool {
	return before(a.dist, int32(a.node), b.dist, int32(b.node))
}

// bucketQueue is a monotone calendar queue for delta-stepping: virtual
// bucket floor(dist/delta) holds every live entry in [b*delta, (b+1)*delta),
// mapped onto a ring of nb physical buckets, nb a power of two of at least
// 64, by the virtual index's low bits. The cursor cur (a virtual index) only
// moves forward, which is sound because Dijkstra pushes satisfy nd >= popped
// dist. Every queued distance is within maxPrice <= delta*(nb-2) of the
// current minimum, so at most nb-1 consecutive virtual buckets are ever live
// and the ring cannot alias two live buckets.
//
// occ has one bit per physical bucket, set while the bucket holds an entry
// (stale included): pop jumps the cursor straight to the next occupied
// bucket a bitmap word at a time, so the empty buckets a narrow price band
// leaves between distances cost nothing. pop scans the cursor bucket for
// the (dist, node)-minimal fresh entry, purging stale entries as it goes;
// buckets stay short by construction (delta is tuned for about
// viewArcsPerBucket arcs of price mass per bucket). A search always drains
// the queue, so between runs every bucket is empty and every bit clear, and
// reset touches neither.
type bucketQueue struct {
	buckets  [][]distItem
	occ      []uint64
	mask     int // nb-1
	cur      int // virtual index of the current bucket
	live     int // total queued entries, stale included
	invDelta float64
}

// bucketSeedCap is the capacity each bucket is born with: buckets hold
// about viewArcsPerBucket arcs of price mass, so few ever outgrow it.
const bucketSeedCap = 8

// reset prepares the queue for a search under view's bucket tuning whose
// next pop is at distance from or beyond: the cursor starts at from's
// bucket. It must only be called when the queue is drained (the kernel
// guarantees this: pop is called until it reports empty).
func (q *bucketQueue) reset(view *CostView, from float64) {
	nb := view.nb
	if len(q.buckets) < nb {
		// Every bucket starts with bucketSeedCap entries of one shared slab:
		// grown one append at a time, a fresh queue's few hundred buckets
		// cost its first searches an allocation apiece.
		q.buckets = make([][]distItem, nb)
		slab := make([]distItem, nb*bucketSeedCap)
		for i := range q.buckets {
			q.buckets[i] = slab[i*bucketSeedCap : i*bucketSeedCap : (i+1)*bucketSeedCap]
		}
		q.occ = make([]uint64, nb/64)
	}
	q.buckets, q.occ = q.buckets[:nb], q.occ[:nb/64]
	q.mask = nb - 1
	q.live = 0
	q.invDelta = view.invDelta
	q.cur = int(from * q.invDelta)
}

// push enqueues an entry. The caller has already recorded it.dist as the
// node's current best distance.
func (q *bucketQueue) push(it distItem) {
	vb := int(it.dist * q.invDelta)
	if vb < q.cur {
		// Float-rounding guard: an entry pushed from the cursor bucket can
		// never belong before it, so clamp rather than corrupt monotonicity.
		vb = q.cur
	}
	i := vb & q.mask
	q.buckets[i] = append(q.buckets[i], it)
	q.occ[i>>6] |= 1 << (i & 63)
	q.live++
}

// seek moves the cursor to the first occupied bucket at or after it, going
// round the ring. The queue must hold an entry.
func (q *bucketQueue) seek() {
	i := q.cur & q.mask
	w := i >> 6
	if word := q.occ[w] >> (i & 63); word != 0 {
		q.cur += bits.TrailingZeros64(word)
		return
	}
	// step is the distance from the cursor to the start of word w+1.
	for step := 64 - i&63; ; step += 64 {
		w = (w + 1) & (len(q.occ) - 1)
		if word := q.occ[w]; word != 0 {
			q.cur += step + bits.TrailingZeros64(word)
			return
		}
	}
}

// pop removes and returns the (dist, node)-minimal fresh entry, or
// ok=false when the queue holds no fresh entries (at which point every
// bucket is empty). dist is the search's current distance array, used to
// detect and purge superseded entries.
func (q *bucketQueue) pop(dist []float64) (distItem, bool) {
	for q.live > 0 {
		q.seek()
		i := q.cur & q.mask
		b := q.buckets[i]
		best := -1
		for j := 0; j < len(b); {
			it := b[j]
			if it.dist > dist[it.node] {
				// Superseded by a later, cheaper push: purge by swap-remove.
				b[j] = b[len(b)-1]
				b = b[:len(b)-1]
				q.live--
				continue
			}
			if best < 0 || it.before(b[best]) {
				best = j
			}
			j++
		}
		if best < 0 {
			// Bucket fully purged; move on.
			q.buckets[i] = b
			q.occ[i>>6] &^= 1 << (i & 63)
			q.cur++
			continue
		}
		it := b[best]
		b[best] = b[len(b)-1]
		b = b[:len(b)-1]
		q.buckets[i] = b
		if len(b) == 0 {
			q.occ[i>>6] &^= 1 << (i & 63)
		}
		q.live--
		return it, true
	}
	return distItem{}, false
}

// indexHeap is a 4-ary min-heap of the nodes of one search — a tree's
// nodes, the layered search's states — ordered by (key[v], v) over a key
// row the caller owns and passes to every call. A node is queued at most
// once: when the caller lowers key[v], queue(v) moves v up in place. at[v]
// is v's position in nodes plus one, 0 for a node not queued, so the heap
// never outgrows one slot a node and never holds a stale entry. The wider
// fan-out does fewer, cheaper levels of sifting than a binary heap.
type indexHeap struct {
	nodes []int32
	at    []int32
}

// queue puts v, whose key has just fallen, in its place: appended if it is
// not queued, then moved up.
func (h *indexHeap) queue(key []float64, v int32) {
	i := int(h.at[v]) - 1
	if i < 0 {
		i = len(h.nodes)
		h.nodes = append(h.nodes, v)
	}
	q, at, kv := h.nodes, h.at, key[v]
	for i > 0 {
		p := (i - 1) / 4
		if !before(kv, v, key[q[p]], q[p]) {
			break
		}
		q[i], at[q[p]] = q[p], int32(i+1)
		i = p
	}
	q[i], at[v] = v, int32(i+1)
}

// next removes and returns the first node. The heap must not be empty.
func (h *indexHeap) next(key []float64) int32 {
	q, at := h.nodes, h.at
	top, last := q[0], len(q)-1
	at[top] = 0
	v := q[last]
	q = q[:last]
	h.nodes = q
	if last == 0 {
		return top
	}
	i, kv := 0, key[v]
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m, km := c, key[q[c]]
		for j := c + 1; j < min(c+4, last); j++ {
			if kj := key[q[j]]; before(kj, q[j], km, q[m]) {
				m, km = j, kj
			}
		}
		if !before(km, q[m], kv, v) {
			break
		}
		q[i], at[q[m]] = q[m], int32(i+1)
		i = m
	}
	q[i], at[v] = v, int32(i+1)
	return top
}

// clear empties the heap, forgetting every queued node's position.
func (h *indexHeap) clear() {
	for _, v := range h.nodes {
		h.at[v] = 0
	}
	h.nodes = h.nodes[:0]
}
