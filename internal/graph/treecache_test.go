package graph

import (
	"reflect"
	"testing"
)

// residualOpts is a capacity filter at floor 10 over a residual slice the
// test mutates between compilations, the way a ledger moves under a cache.
func residualOpts(res []float64) *CostOptions {
	return &CostOptions{
		MinCapacity: 10,
		Residual:    residualFunc(func(e EdgeID) float64 { return res[e] }),
	}
}

func fullResiduals(g *Graph) []float64 {
	res := make([]float64, g.NumEdges())
	for e := range res {
		res[e] = g.Edge(EdgeID(e)).Capacity
	}
	return res
}

func sameTree(t *testing.T, got, want *ShortestTree) {
	t.Helper()
	if got.Src != want.Src || !reflect.DeepEqual(got.Dist, want.Dist) ||
		!reflect.DeepEqual(got.parent, want.parent) || !reflect.DeepEqual(got.prev, want.prev) {
		t.Fatalf("shared tree from %d differs from a fresh search", want.Src)
	}
}

// TestTreeCacheLookupInsert walks the store's contract: the first request
// publishes its view, a request whose residuals moved without crossing the
// floor is served the same view and its trees, one that crossed it gets a
// view and trees equal to a fresh search, and the counters tell the three
// apart.
func TestTreeCacheLookupInsert(t *testing.T) {
	g := benchGraph(40, 3)
	res := fullResiduals(g)
	c := NewTreeCache(0)

	v1, reused, evicted := c.View(g, residualOpts(res))
	if reused || evicted != 0 || c.Views() != 1 {
		t.Fatalf("first View: reused=%v evicted=%d views=%d", reused, evicted, c.Views())
	}
	t1, hit, _ := c.Tree(v1, 3)
	if hit {
		t.Fatal("tree hit on an empty table")
	}
	sameTree(t, t1, g.Dijkstra(3, residualOpts(res)))
	if again, hit, _ := c.Tree(v1, 3); !hit || again != t1 {
		t.Fatalf("second request: hit=%v tree %p, want the published %p", hit, again, t1)
	}

	// 100 -> 50 stays above the floor of 10: same admissible arcs.
	res[0], res[5] = 50, 10
	v2, reused, _ := c.View(g, residualOpts(res))
	if !reused || v2 != v1 {
		t.Fatalf("residual move above the floor: reused=%v view %p, want %p", reused, v2, v1)
	}
	if again, hit, _ := c.Tree(v2, 3); !hit || again != t1 {
		t.Fatal("tree not shared across a move that crossed no floor")
	}

	// Below the floor the arc drops out: new content, new trees.
	res[0] = 9.5
	v3, reused, evicted := c.View(g, residualOpts(res))
	if reused || v3 == v1 {
		t.Fatal("view reused although an arc became inadmissible")
	}
	if evicted != 1 || c.Len() != 0 || c.Views() != 1 {
		t.Fatalf("displacing a 1-tree view: evicted=%d len=%d views=%d", evicted, c.Len(), c.Views())
	}
	t3, hit, _ := c.Tree(v3, 3)
	if hit {
		t.Fatal("new view served the displaced view's tree")
	}
	sameTree(t, t3, g.Dijkstra(3, residualOpts(res)))

	hits, misses, evictions := c.Stats()
	if hits != 2 || misses != 2 || evictions != 1 {
		t.Fatalf("tree stats = (%d,%d,%d), want (2,2,1)", hits, misses, evictions)
	}
	if reuses, builds := c.ViewStats(); reuses != 1 || builds != 2 {
		t.Fatalf("view stats = (%d,%d), want (1,2)", reuses, builds)
	}
}

// TestTreeCacheGraphIdentity: equal bitsets over different adjacency are
// not equal views. Two structurally identical graphs, and one graph before
// and after AddEdge, must never share.
func TestTreeCacheGraphIdentity(t *testing.T) {
	g, twin := benchGraph(30, 3), benchGraph(30, 3)
	c := NewTreeCache(0)
	vg, _, _ := c.View(g, nil)
	if _, reused, _ := c.View(g, nil); !reused {
		t.Fatal("same graph, same options: view not reused")
	}
	vt, reused, _ := c.View(twin, nil)
	if reused || vt == vg {
		t.Fatal("a structurally identical but distinct graph shared the view")
	}

	before, _, _ := c.View(g, nil)
	tb, _, _ := c.Tree(before, 0)
	far := NodeID(29)
	g.MustAddEdge(0, far, 0.001, 100)
	after, reused, _ := c.View(g, nil)
	if reused || after == before {
		t.Fatal("view shared across AddEdge")
	}
	ta, hit, _ := c.Tree(after, 0)
	if hit || ta.Dist[far] != 0.001 || tb.Dist[far] == 0.001 {
		t.Fatalf("tree after AddEdge: hit=%v dist %v (before %v)", hit, ta.Dist[far], tb.Dist[far])
	}
}

// TestTreeCacheSizeCap checks the maxEntries bound on retained trees:
// oldest published go first, and an evicted source is searched again.
func TestTreeCacheSizeCap(t *testing.T) {
	g := benchGraph(20, 3)
	c := NewTreeCache(3)
	v, _, _ := c.View(g, nil)
	evicted := 0
	for src := NodeID(0); src < 10; src++ {
		_, _, ev := c.Tree(v, src)
		evicted += ev
	}
	if c.Len() != 3 || evicted != 7 {
		t.Fatalf("len = %d, evicted %d; want cap 3, 7 evicted", c.Len(), evicted)
	}
	for src := NodeID(7); src < 10; src++ {
		if _, hit, _ := c.Tree(v, src); !hit {
			t.Fatalf("recent tree src=%d evicted before older ones", src)
		}
	}
	tree, hit, _ := c.Tree(v, 0)
	if hit {
		t.Fatal("evicted tree still served")
	}
	sameTree(t, tree, g.Dijkstra(0, nil))
	if _, _, evictions := c.Stats(); evictions != 8 {
		t.Fatalf("evictions = %d, want 8", evictions)
	}
}

// TestViewCacheSizeCap checks the bound on retained views: however many
// distinct contents pass through, one is kept; a displaced view goes on
// serving whoever holds it, memoizing but retaining nothing.
func TestViewCacheSizeCap(t *testing.T) {
	g := benchGraph(20, 3)
	res := fullResiduals(g)
	c := NewViewCache(0)
	first, _, _ := c.View(g, residualOpts(res))
	c.Tree(first, 1)
	for e := 0; e < 10; e++ {
		res[e] = 0
		c.View(g, residualOpts(res))
		if c.Views() != 1 {
			t.Fatalf("%d views retained after %d distinct contents, want 1", c.Views(), e+2)
		}
	}
	if _, _, evictions := c.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want the displaced view's 1 tree", evictions)
	}
	held, hit, _ := c.Tree(first, 2)
	if hit {
		t.Fatal("hit on a source never searched")
	}
	if again, hit, _ := c.Tree(first, 2); !hit || again != held {
		t.Fatal("displaced view stopped memoizing for its holder")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d: a displaced view's trees count as retained", c.Len())
	}
}

// TestTreeCacheLookupZeroAllocs is the hit-path allocation budget,
// mirroring TestDijkstraWithZeroAllocs: what View does for a request that
// finds its view retained (compile into warm scratch, compare) and being
// served a published tree must not allocate at all. The scratch is the
// test's own, because the pool View borrows from drops entries at random
// under the race detector; core.TestPathCacheHitPathZeroAllocs holds View
// itself to the same budget.
func TestTreeCacheLookupZeroAllocs(t *testing.T) {
	g := benchGraph(100, 4)
	opts := residualOpts(fullResiduals(g))
	c := NewTreeCache(0)
	v, _, _ := c.View(g, opts)
	c.Tree(v, 5)
	s := NewScratch()
	allocs := testing.AllocsPerRun(20, func() {
		s.resBuf = g.CompileViewInto(&s.view, opts, s.resBuf)
		if !v.sameContent(&s.view) {
			t.Fatal("warm view missed")
		}
		if _, hit, _ := c.Tree(v, 5); !hit {
			t.Fatal("warm tree missed")
		}
	})
	if allocs != 0 {
		t.Fatalf("hit path allocated %v objects per run, want 0", allocs)
	}
}
