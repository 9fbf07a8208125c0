package graph

import "math/bits"

// This file implements the two lazy priority structures behind the
// view-based kernels: the bucket queue that sweeps complete trees and the
// heap of the layered search. They pop in the strict total order —
// ascending (dist, node) — a GrowTree's own frontier keeps too, so which
// structure serves a search can never fork its results.
//
// Neither structure supports decrease-key: the kernel pushes a new entry
// on every strict improvement and the queues drop superseded entries
// lazily (an entry is stale iff its dist is larger than the current
// Dist[node]). Because pushes happen only on strict improvement, two live
// entries can never share (dist, node), which is what makes the pop order
// a total order.

// before is the kernel-wide pop order: ascending dist, ties broken by the
// smaller node ID. This replaces the old reliance on container/heap sift
// order, making tie-breaking an explicit, structure-independent contract.
func (a distItem) before(b distItem) bool {
	return a.dist < b.dist || (a.dist == b.dist && a.node < b.node)
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

// heap4 is a 4-ary implicit min-heap over distItem, ordered by before
// (strict (dist, node) order). The wider fan-out does fewer, cheaper
// levels of sifting than a binary heap: pops touch ~half the cache lines.
// It serves the layered search, whose distances the bucket queue's window
// bound does not hold for.
type heap4 []distItem

func (h *heap4) push(x distItem) {
	*h = append(*h, x)
	hh := *h
	i := len(hh) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !hh[i].before(hh[p]) {
			break
		}
		hh[p], hh[i] = hh[i], hh[p]
		i = p
	}
}

func (h *heap4) pop() distItem {
	hh := *h
	top := hh[0]
	last := len(hh) - 1
	hh[0] = hh[last]
	*h = hh[:last]
	hh = hh[:last]
	i := 0
	for {
		c := 4*i + 1
		if c >= last {
			break
		}
		m := c
		end := c + 4
		if end > last {
			end = last
		}
		for j := c + 1; j < end; j++ {
			if hh[j].before(hh[m]) {
				m = j
			}
		}
		if !hh[m].before(hh[i]) {
			break
		}
		hh[i], hh[m] = hh[m], hh[i]
		i = m
	}
	return top
}
