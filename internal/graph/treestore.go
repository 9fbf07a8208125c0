package graph

import (
	"slices"
	"unsafe"
)

// TreeStore keeps the Dijkstra trees grown on one compiled cost view from
// one search to the next, for as long as the view keeps its content. The key
// is the content, not the state it was compiled from: Bind compares the arcs
// a residual row admits word for word with the retained view's, and compiles
// only when they differ. Equal admissibility means equal prices and
// therefore equal trees, so ledger churn that crosses no capacity floor
// leaves every retained tree valid.
//
// A tree is kept as far as it was grown (a GrowTree, frontier and all), and
// the next search that asks for its source resumes it. Whole trees leave in
// least-recently-used order, never one a search since the last Bind was
// handed, and Trim bounds the memory they pin. Trees are carved
// treeBatchSize at a time from one block, so a store refilled after its
// arena was collected costs a few allocations, not two per tree.
//
// Not safe for concurrent use: each embed arena owns one.
type TreeStore struct {
	view CostView
	// Tree i is batches[i/treeBatchSize].trees[i%treeBatchSize]. used[i] is
	// the Bind count when it was last handed out, 0 while it is kept for no
	// source and only lends its storage to the next miss. slot[v] is one
	// plus the number of the tree kept for source v (0: none).
	batches []*treeBatch
	used    []uint64
	slot    []int32
	binds   uint64
	limit   int // trees a miss may hold before it re-roots one (0: no bound yet)
}

// treeBatch is the storage of treeBatchSize trees over one node count: the
// trees and one pointer-free block for all their arrays.
type treeBatch struct {
	trees [treeBatchSize]GrowTree
	block []float64
}

const treeBatchSize = 8

// batchBytes is what a batch of trees over n nodes pins: GrowTree.alloc's
// six words per node for each tree, and the trees.
func batchBytes(n int) int { return 48*n*treeBatchSize + int(unsafe.Sizeof(treeBatch{})) }

func (s *TreeStore) tree(i int) *GrowTree {
	return &s.batches[i/treeBatchSize].trees[i%treeBatchSize]
}

// Bind starts a search on g under opts, whose edge residuals the caller has
// read into res (res[e] bitwise what opts.Residual reports for edge e, read
// only under a capacity floor). When opts bans nothing and admits exactly
// the arcs the retained view admits, the store keeps that view and its trees
// (reused); otherwise it drops them, compiles opts into its own view, and
// evicted counts the trees dropped. v is the store's view, the one its trees
// are grown on. Trees handed out before this call are no longer held back
// from eviction.
func (s *TreeStore) Bind(g *Graph, opts *CostOptions, res []float64) (v *CostView, reused bool, evicted int) {
	s.binds++
	if s.view.admitsAsCompiled(g, opts, res) {
		return &s.view, true, 0
	}
	evicted = s.Forget()
	if s.view.numNodes != g.n {
		// The batches are sized for the old node count.
		clear(s.batches)
		s.batches, s.used = s.batches[:0], s.used[:0]
	}
	s.view.compile(g, opts, res)
	s.slot = slices.Grow(s.slot[:0], s.view.numNodes)[:s.view.numNodes]
	clear(s.slot)
	return &s.view, false, evicted
}

// Forget drops every kept tree, as a Bind to other content does, and returns
// how many there were; their storage stays for the next misses.
func (s *TreeStore) Forget() (evicted int) {
	for i, u := range s.used {
		if u != 0 {
			evicted++
			s.used[i] = 0
		}
	}
	clear(s.slot)
	return evicted
}

// Tree returns the tree rooted at src on the bound view, src one of its
// nodes: the kept one, grown as far as earlier searches took it (hit), or
// one rooted now, nothing searched yet. A miss takes the storage of a tree
// kept for no source, or — once the store holds as many trees as Trim last
// allowed — re-roots the least recently used one (evicted), unless every
// tree was handed out since Bind; then it carves a new one. The tree stays
// the caller's until the next Bind.
func (s *TreeStore) Tree(src NodeID) (t *GrowTree, hit, evicted bool) {
	i := int(s.slot[src]) - 1
	if hit = i >= 0; !hit {
		i = s.leastRecent()
		switch {
		case i >= 0 && s.used[i] == 0: // storage kept for no source
		case i >= 0 && s.used[i] != s.binds && s.limit > 0 && len(s.used) >= s.limit:
			s.slot[s.tree(i).Src] = 0
			evicted = true
		default:
			i = s.carve()
		}
		s.tree(i).Reset(&s.view, src)
		s.slot[src] = int32(i + 1)
	}
	s.used[i] = s.binds
	return s.tree(i), hit, evicted
}

// leastRecent returns the number of the tree handed out longest ago — a
// tree kept for no source counts as the oldest — or -1 when there is none.
func (s *TreeStore) leastRecent() int {
	lru := -1
	for i, u := range s.used {
		if lru < 0 || u < s.used[lru] {
			lru = i
		}
	}
	return lru
}

// carve takes a new tree from the last batch, or from a new one when that is
// full, and returns its number.
func (s *TreeStore) carve() int {
	i, n := len(s.used), s.view.numNodes
	k := i % treeBatchSize
	if k == 0 {
		s.batches = append(s.batches, &treeBatch{block: make([]float64, 6*n*treeBatchSize)})
	}
	lo, hi := 6*n*k, 6*n*(k+1)
	s.tree(i).carve(s.batches[i/treeBatchSize].block[lo:hi:hi], n)
	s.used = append(s.used, 0)
	return i
}

// Trim frees the last batch of trees, evicting those it keeps for a source,
// until the store pins at most maxBytes — all of it, view included, when
// even its view does not fit — and bounds the trees later misses may hold
// to as many as fit beside what is left. The bound is what keeps a store
// inside maxBytes from run to run, re-rooting the least recently used tree
// at a miss; Trim frees batches only when the room it left shrank or a run
// held every tree. evicted counts the trees dropped that were still kept.
func (s *TreeStore) Trim(maxBytes int) (evicted int) {
	for s.MemBytes() > maxBytes && len(s.batches) > 0 {
		lo := (len(s.batches) - 1) * treeBatchSize
		for i := lo; i < len(s.used); i++ {
			if s.used[i] != 0 {
				s.slot[s.tree(i).Src] = 0
				evicted++
			}
		}
		s.batches[len(s.batches)-1] = nil
		s.batches, s.used = s.batches[:len(s.batches)-1], s.used[:lo]
	}
	if s.MemBytes() > maxBytes {
		*s = TreeStore{}
		return evicted
	}
	room := (maxBytes - s.MemBytes()) / batchBytes(s.view.numNodes) * treeBatchSize
	if k := len(s.used) % treeBatchSize; k > 0 {
		room += treeBatchSize - k
	}
	s.limit = max(1, len(s.used)+room)
	return evicted
}

// MemBytes reports the memory the store pins: its view's arrays, its tables
// and its batches of trees, with the frontiers that outgrew their share of a
// block.
func (s *TreeStore) MemBytes() int {
	n := s.view.MemBytes() + 4*cap(s.slot) + 8*cap(s.used)
	for _, b := range s.batches {
		n += 8*cap(b.block) + int(unsafe.Sizeof(*b))
		for i := range b.trees {
			if t := &b.trees[i]; cap(t.frontier) > cap(t.Dist) {
				n += 16 * cap(t.frontier)
			}
		}
	}
	return n
}

// TreeCache and ViewCache hold nothing: every ledger-backed embed keeps its
// trees in its pooled arena (a TreeStore).
//
// Deprecated: benchmark/ still builds them; they go with their last caller.
type (
	TreeCache struct{}
	ViewCache = TreeCache
)

// Deprecated: see TreeCache.
func NewTreeCache(int) *TreeCache { return &TreeCache{} }

// Deprecated: see TreeCache.
func NewViewCache(int) *ViewCache { return &TreeCache{} }
