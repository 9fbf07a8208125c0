package graph

import "sync"

// Scratch is reusable working memory for the search algorithms: the
// Dijkstra tree arrays, the layered search's per-state arrays and heap, the
// bucket queue complete trees are swept with, the BFS queue, and an
// epoch-stamped visited set. A single Scratch serves any sequence of searches
// over any graphs (arrays grow to the largest graph seen and are reset
// sparsely), but it is not safe for concurrent use — give each goroutine its
// own, e.g. one per worker-pool slot.
//
// Results returned by the *With methods that alias scratch memory (the
// *ShortestTree from CostView.DijkstraWith, the *LayeredSearch from
// LayeredDijkstraWith) are valid only until the next call with the same
// Scratch; Path values are freshly allocated and safe to retain.
type Scratch struct {
	// tree is the scratch-owned Dijkstra tree (see GrowTree).
	tree    GrowTree
	layered LayeredSearch
	bq      bucketQueue

	queue []NodeID

	// Epoch-stamped visited set: node v is visited iff stamp[v] == epoch.
	// Bumping epoch clears the whole set in O(1); on uint32 wraparound the
	// array is zeroed once.
	stamp []uint32
	epoch uint32

	// BFS parent links. These never need resetting: they are only read for
	// nodes stamped visited in the current run, and every such node had its
	// entries written first.
	parentEdge []EdgeID
	parentNode []NodeID

	// pathOut[v] is the edge TwoEdgeConnected's first path leaves v by, None
	// for every node between calls.
	pathOut []EdgeID
}

// NewScratch returns an empty Scratch. Buffers are sized lazily on first
// use.
func NewScratch() *Scratch { return &Scratch{} }

// MaxPooledBytes is the most memory a pooled Scratch may pin (see MemBytes):
// its arrays only ever grow, so one grown past it by a one-off huge search
// is dropped rather than pooled, and cannot stay pinned behind later small
// ones. core's embed arenas are held to the same cap.
const MaxPooledBytes = 8 << 20

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch borrows a Scratch from the package pool. Pair with PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the package pool, unless it pins more than
// MaxPooledBytes. The caller must not use s, or any scratch-aliasing result
// produced with it, afterwards.
func PutScratch(s *Scratch) {
	if s.MemBytes() <= MaxPooledBytes {
		scratchPool.Put(s)
	}
}

// MemBytes reports the memory the scratch's own arrays pin: its Dijkstra
// tree (24 bytes a node), the layered search's rows (32 bytes a state,
// plus its touched and exit lists), the BFS and connectivity arrays, and the
// bucket queue at its seeded size.
func (s *Scratch) MemBytes() int {
	r := &s.layered
	b := s.tree.MemBytes() + 8*(cap(r.dist)+cap(r.key)+cap(r.exits)) +
		4*(cap(r.pred)+cap(r.via)+cap(r.queue.nodes)+cap(r.queue.at)+cap(r.touched))
	b += 4 * (cap(s.queue) + cap(s.stamp) + cap(s.parentEdge) + cap(s.parentNode) + cap(s.pathOut))
	return b + (24+16*bucketSeedCap)*cap(s.bq.buckets) + 8*cap(s.bq.occ)
}

// visitedReset prepares the visited set for a graph of n nodes and clears
// it in O(1) by advancing the epoch.
func (s *Scratch) visitedReset(n int) {
	if len(s.stamp) < n {
		s.stamp = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: the stale stamps could collide, zero once
		clear(s.stamp)
		s.epoch = 1
	}
}

func (s *Scratch) visit(v NodeID)        { s.stamp[v] = s.epoch }
func (s *Scratch) visited(v NodeID) bool { return s.stamp[v] == s.epoch }

// growParents ensures the BFS parent arrays cover n nodes.
func (s *Scratch) growParents(n int) {
	if len(s.parentEdge) < n {
		s.parentEdge = make([]EdgeID, n)
		s.parentNode = make([]NodeID, n)
	}
}
