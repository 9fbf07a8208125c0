package graph

import (
	"slices"
	"sync"
	"sync/atomic"
)

// TreeCache shares one compiled cost view, and the Dijkstra trees searched
// on it, across requests. The key is the view's content, not the state it
// was compiled from: a request compiles its view into pooled scratch and
// View compares the result word for word with the retained view. Equal
// content means equal prices, equal admissibility and therefore equal
// trees, so a hit needs no epoch, no fingerprint and no publish guard —
// ledger churn that crosses no capacity floor leaves every request on the
// same view.
//
// Retention is exactly one view: publishing a view with different content
// displaces the retained one together with its trees. Requests still
// holding the displaced view keep using it (nothing is mutated after
// publication except the tree table, whose slots are only ever filled);
// it is collected when the last of them ends. On that one view at most
// maxEntries trees are retained, oldest published dropped first. A fully
// populated view costs 24 B per node per tree plus headers, about 250 KB
// at 100 nodes.
//
// Safe for concurrent use. Serving a retained view or tree takes no lock
// and allocates nothing.
type TreeCache struct {
	maxTrees int

	// cur is the retained view. Readers load it lock-free; publishing a
	// view, or a tree into a view's table, holds mu.
	cur atomic.Pointer[CostView]
	mu  sync.Mutex

	hits, misses, evictions atomic.Uint64
	reuses, builds          atomic.Uint64
}

// defaultTreeCacheEntries is the maxEntries default (NewTreeCache(0)).
const defaultTreeCacheEntries = 4096

// NewTreeCache returns an empty cache retaining at most maxEntries trees
// (0 means the default of 4096).
func NewTreeCache(maxEntries int) *TreeCache {
	if maxEntries <= 0 {
		maxEntries = defaultTreeCacheEntries
	}
	return &TreeCache{maxTrees: maxEntries}
}

// ViewCache is TreeCache under the name it had while views and trees were
// cached apart.
//
// Deprecated: benchmark/ still builds one beside its TreeCache; both go
// when a [benchmark] change stops it.
type ViewCache = TreeCache

// NewViewCache is NewTreeCache.
//
// Deprecated: see ViewCache.
func NewViewCache(maxEntries int) *ViewCache { return NewTreeCache(maxEntries) }

// View compiles opts against g into pooled scratch and returns the shared
// view of that content: the retained one when it matches (reused), else a
// heap copy of the compilation, published in its place. evicted counts the
// trees dropped with a displaced view. The result is immutable and may be
// held for as long as the caller likes.
func (c *TreeCache) View(g *Graph, opts *CostOptions) (v *CostView, reused bool, evicted int) {
	s := GetScratch()
	defer PutScratch(s)
	s.resBuf = g.CompileViewInto(&s.view, opts, s.resBuf)
	s.lastN, s.lastA = g.n, s.view.numArcs
	cur := c.cur.Load()
	if cur == nil || !cur.sameContent(&s.view) {
		c.mu.Lock()
		defer c.mu.Unlock()
		// Look again: a concurrent request may have published this content.
		if cur = c.cur.Load(); cur == nil || !cur.sameContent(&s.view) {
			v = s.view.publish()
			c.cur.Store(v)
			c.builds.Add(1)
			if cur != nil {
				evicted = len(cur.order)
				c.evictions.Add(uint64(evicted))
			}
			return v, false, evicted
		}
	}
	c.reuses.Add(1)
	return cur, true, 0
}

// sameContent reports whether v and w were compiled over the same CSR
// arrays to the same admissible arcs and banned nodes — everything a view
// and the trees searched on it depend on. The retained view keeps its CSR
// arrays alive, so their address cannot be reused by another graph.
func (v *CostView) sameContent(w *CostView) bool {
	return v.numNodes == w.numNodes && v.admitted == w.admitted &&
		len(v.arcs) == len(w.arcs) && (len(v.arcs) == 0 || &v.arcs[0] == &w.arcs[0]) &&
		slices.Equal(v.admit, w.admit) && slices.Equal(v.nodeBan, w.nodeBan)
}

// publish returns a heap copy of a scratch-compiled view with an empty
// tree table.
func (v *CostView) publish() *CostView {
	c := *v
	c.price = append([]float64(nil), v.price...)
	c.admit = append([]uint64(nil), v.admit...)
	c.nodeBan = append([]uint64(nil), v.nodeBan...)
	c.trees = make([]atomic.Pointer[ShortestTree], v.numNodes)
	return &c
}

// Tree returns the min-cost tree rooted at src on v, which must be a view
// this cache's View returned. A tree already in the view's table is a hit;
// otherwise it is searched now and published for every later request, and
// evicted counts the tree the size cap dropped to make room. Trees are
// immutable.
func (c *TreeCache) Tree(v *CostView, src NodeID) (t *ShortestTree, hit bool, evicted int) {
	slot := &v.trees[src]
	if t = slot.Load(); t != nil {
		c.hits.Add(1)
		return t, true, 0
	}
	t = v.Dijkstra(src)
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if first := slot.Load(); first != nil {
		// A concurrent request searched the same source; both trees are
		// equal, keep the published one.
		return first, false, 0
	}
	slot.Store(t)
	if c.cur.Load() != v {
		// v was displaced: its table still serves the requests holding it,
		// but nothing on it is retained.
		return t, false, 0
	}
	if len(v.order) >= c.maxTrees {
		v.trees[v.order[0]].Store(nil)
		v.order = v.order[:copy(v.order, v.order[1:])]
		c.evictions.Add(1)
		evicted = 1
	}
	v.order = append(v.order, src)
	return t, false, evicted
}

// Len reports the number of retained trees.
func (c *TreeCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.cur.Load(); cur != nil {
		return len(cur.order)
	}
	return 0
}

// Views reports the number of retained views (0 or 1).
func (c *TreeCache) Views() int {
	if c.cur.Load() == nil {
		return 0
	}
	return 1
}

// Stats returns the lifetime tree counts: requests served from a view's
// table, trees searched, and trees dropped by the size cap or with a
// displaced view.
func (c *TreeCache) Stats() (hits, misses, evictions uint64) {
	return c.hits.Load(), c.misses.Load(), c.evictions.Load()
}

// ViewStats returns the lifetime view counts: requests served the retained
// view, and views published.
func (c *TreeCache) ViewStats() (reuses, builds uint64) {
	return c.reuses.Load(), c.builds.Load()
}
