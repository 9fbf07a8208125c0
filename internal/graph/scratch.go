package graph

import "sync"

// Scratch is reusable working memory for the search algorithms: the
// Dijkstra tree arrays, the layered search's per-state arrays and heap, the
// bucket queue complete trees are swept with, a compiled cost view with its
// residual buffer, the BFS queue, and an epoch-stamped visited set. A single
// Scratch serves any sequence of searches over any graphs (arrays grow to
// the largest graph seen and are reset sparsely), but it is not safe for
// concurrent use — give each goroutine its own, e.g. one per worker-pool
// slot.
//
// Results returned by the *With methods that alias scratch memory (the
// *ShortestTree from DijkstraWith, the *LayeredSearch from
// LayeredDijkstraWith) are valid only until the next call with the same
// Scratch; Path values are freshly allocated and safe to retain.
type Scratch struct {
	// tree is the scratch-owned Dijkstra tree (see GrowTree).
	tree    GrowTree
	layered LayeredSearch
	bq      bucketQueue

	// view is the scratch-owned compiled cost view (rebuilt per query by
	// DijkstraWith); resBuf is the per-edge residual buffer view
	// compilation fills.
	view   CostView
	resBuf []float64

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

	// lastN and lastA are the node (for a layered search, state) and arc
	// counts of the most recent search served, recorded so PutScratch can
	// compare the scratch's grown capacity against the sizes actually in
	// recent use.
	lastN int
	lastA int
}

// NewScratch returns an empty Scratch. Buffers are sized lazily on first
// use.
func NewScratch() *Scratch { return &Scratch{} }

var scratchPool = sync.Pool{New: func() any { return NewScratch() }}

// GetScratch borrows a Scratch from the package pool. Pair with PutScratch.
func GetScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// PutScratch returns a Scratch to the package pool — unless its backing
// arrays have grown far past the graph sizes in recent use, in which case
// the scratch is dropped so the pool stops pinning the high-water memory
// of a one-off large search for the life of the process. The caller must
// not use s, or any scratch-aliasing result produced with it, afterwards.
func PutScratch(s *Scratch) {
	nodeDemand, arcDemand := noteScratchUse(s.lastN, s.lastA)
	if keepScratch(s, nodeDemand, arcDemand) {
		scratchPool.Put(s)
	}
}

// scratchDemand is a two-window high-water mark of the graph sizes served
// by pooled scratches: cur tracks the current window's maximum, prev the
// previous window's, and the demand estimate is the larger of the two —
// so the estimate never drops below a size seen within the last
// scratchWindowPuts..2×scratchWindowPuts checkins. Node and arc demand
// are tracked separately because the view arrays scale with arcs, not
// nodes.
var scratchDemand struct {
	mu                sync.Mutex
	cur, prev         int
	curArcs, prevArcs int
	puts              int
}

const (
	// scratchWindowPuts is the demand window length, in PutScratch calls.
	scratchWindowPuts = 64
	// scratchOversizeFactor is how many times larger than recent demand a
	// scratch's arrays may be before PutScratch drops it.
	scratchOversizeFactor = 4
	// scratchMinRetain exempts small scratches from dropping entirely:
	// below this array size the memory at stake is noise.
	scratchMinRetain = 4096
)

// noteScratchUse folds one served size into the demand windows and
// returns the current node and arc demand estimates.
func noteScratchUse(n, arcs int) (nodeDemand, arcDemand int) {
	d := &scratchDemand
	d.mu.Lock()
	defer d.mu.Unlock()
	if n > d.cur {
		d.cur = n
	}
	if arcs > d.curArcs {
		d.curArcs = arcs
	}
	if d.puts++; d.puts >= scratchWindowPuts {
		d.prev, d.cur, d.puts = d.cur, 0, 0
		d.prevArcs, d.curArcs = d.curArcs, 0
	}
	nodeDemand, arcDemand = d.cur, d.curArcs
	if d.prev > nodeDemand {
		nodeDemand = d.prev
	}
	if d.prevArcs > arcDemand {
		arcDemand = d.prevArcs
	}
	return nodeDemand, arcDemand
}

// keepScratch decides whether a scratch with the given recent-demand
// estimates is worth pooling: it is kept unless a backing array exceeds
// both the absolute floor and scratchOversizeFactor times the matching
// demand estimate (node-sized arrays against node demand, arc-sized view
// arrays against arc demand).
func keepScratch(s *Scratch, nodeDemand, arcDemand int) bool {
	size := cap(s.tree.Dist)
	if cap(s.layered.dist) > size {
		size = cap(s.layered.dist)
	}
	if len(s.stamp) > size {
		size = len(s.stamp)
	}
	if len(s.parentEdge) > size {
		size = len(s.parentEdge)
	}
	arcSize := cap(s.view.price)
	if cap(s.resBuf) > arcSize {
		arcSize = cap(s.resBuf)
	}
	limit := func(demand int) int {
		l := demand * scratchOversizeFactor
		if l < scratchMinRetain {
			l = scratchMinRetain
		}
		return l
	}
	return size <= limit(nodeDemand) && arcSize <= limit(arcDemand)
}

// MemBytes reports the memory the scratch's own arrays pin: its Dijkstra
// tree (24 bytes a node), the layered search's rows (32 bytes a state,
// plus its touched and exit lists), its view and residual buffer, the BFS
// and connectivity arrays, and the bucket queue at its seeded size.
func (s *Scratch) MemBytes() int {
	r := &s.layered
	b := s.tree.MemBytes() + s.view.MemBytes() + 8*cap(s.resBuf)
	b += 8*(cap(r.dist)+cap(r.key)+cap(r.exits)) +
		4*(cap(r.pred)+cap(r.via)+cap(r.queue.nodes)+cap(r.queue.at)+cap(r.touched))
	b += 4 * (cap(s.queue) + cap(s.stamp) + cap(s.parentEdge) + cap(s.parentNode) + cap(s.pathOut))
	return b + (24+16*bucketSeedCap)*cap(s.bq.buckets) + 8*cap(s.bq.occ)
}

// visitedReset prepares the visited set for a graph of n nodes and clears
// it in O(1) by advancing the epoch.
func (s *Scratch) visitedReset(n int) {
	s.lastN = n
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

// DijkstraWith is Dijkstra running entirely on scratch memory: the view
// compiles into scratch-owned arrays and the kernel runs on the scratch
// tree, for zero steady-state allocations once s has warmed up to the
// graph size. The returned tree is owned by s and is invalidated by the
// next DijkstraWith call on the same Scratch; results are bit-identical
// to Dijkstra.
func (g *Graph) DijkstraWith(s *Scratch, src NodeID, opts *CostOptions) *ShortestTree {
	s.resBuf = g.CompileViewInto(&s.view, opts, s.resBuf)
	return s.view.DijkstraWith(s, src)
}
