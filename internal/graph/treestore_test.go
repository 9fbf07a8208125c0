package graph

import (
	"reflect"
	"testing"
)

// residualOpts is a capacity filter at floor 10 over a residual slice the
// test mutates between compilations, the way a ledger moves under a store.
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
		t.Fatalf("stored tree from %d differs from a fresh search", want.Src)
	}
}

// bind binds the store to g under residualOpts over res — with no floor for
// a nil res — as an embed does at the start of its run.
func bind(s *TreeStore, g *Graph, res []float64) (*CostView, bool, int) {
	if res == nil {
		return s.Bind(g, nil, nil)
	}
	return s.Bind(g, residualOpts(res), res)
}

// TestTreeCacheLookupInsert walks the store that replaced TreeCache through
// its contract: the first bind keeps its view, a tree is rooted and grown
// part of the way, a bind whose residuals moved without crossing the floor
// keeps the view and serves the same tree, resumed to completion equal to a
// fresh search, and a bind that crossed it drops the tree and grows new ones
// equal to a fresh search on the new content.
func TestTreeCacheLookupInsert(t *testing.T) {
	g := benchGraph(40, 3)
	res := fullResiduals(g)
	var s TreeStore
	sc := NewScratch()

	v1, reused, evicted := bind(&s, g, res)
	if reused || evicted != 0 {
		t.Fatalf("first Bind: reused=%v evicted=%d", reused, evicted)
	}
	t1, hit, _ := s.Tree(3)
	if hit {
		t.Fatal("tree hit on an empty store")
	}
	if _, settled := t1.To(sc, 7); settled == 0 || settled >= g.NumNodes() {
		t.Fatalf("growing as far as node 7 settled %d of %d nodes", settled, g.NumNodes())
	}
	if again, hit, _ := s.Tree(3); !hit || again != t1 {
		t.Fatalf("second request: hit=%v tree %p, want the kept %p", hit, again, t1)
	}

	// 100 -> 50 stays above the floor of 10: same admissible arcs.
	res[0], res[5] = 50, 10
	v2, reused, _ := bind(&s, g, res)
	if !reused || v2 != v1 {
		t.Fatalf("residual move above the floor: reused=%v view %p, want %p", reused, v2, v1)
	}
	again, hit, _ := s.Tree(3)
	if !hit || again != t1 {
		t.Fatal("tree not kept across a move that crossed no floor")
	}
	full, _ := again.To(sc, None)
	sameTree(t, full, g.Dijkstra(3, residualOpts(res)))

	// Below the floor the arc drops out: new content, new trees.
	res[0] = 9.5
	if _, reused, evicted := bind(&s, g, res); reused || evicted != 1 {
		t.Fatalf("crossing the floor: reused=%v evicted=%d, want a new view and 1 tree dropped", reused, evicted)
	}
	t3, hit, _ := s.Tree(3)
	if hit {
		t.Fatal("new view served the displaced view's tree")
	}
	if t3 != t1 || len(s.used) != 1 {
		t.Fatalf("the displaced tree's storage was not reused: %d trees", len(s.used))
	}
	full, _ = t3.To(sc, None)
	sameTree(t, full, g.Dijkstra(3, residualOpts(res)))
}

// TestTreeCacheGraphIdentity: equal bitsets over different adjacency are
// not equal views. Two structurally identical graphs, and one graph before
// and after AddEdge, must never share a tree.
func TestTreeCacheGraphIdentity(t *testing.T) {
	g, twin := benchGraph(30, 3), benchGraph(30, 3)
	var s TreeStore
	bind(&s, g, nil)
	if _, reused, _ := bind(&s, g, nil); !reused {
		t.Fatal("same graph, same options: view not reused")
	}
	if _, reused, _ := bind(&s, twin, nil); reused {
		t.Fatal("a structurally identical but distinct graph shared the view")
	}

	bind(&s, g, nil)
	tb, _, _ := s.Tree(0)
	far := NodeID(29)
	before, _ := tb.To(NewScratch(), far)
	farBefore := before.Dist[far]
	g.MustAddEdge(0, far, 0.001, 100)
	if _, reused, _ := bind(&s, g, nil); reused {
		t.Fatal("view shared across AddEdge")
	}
	ta, hit, _ := s.Tree(0)
	after, _ := ta.To(NewScratch(), far)
	if hit || after.Dist[far] != 0.001 || farBefore == 0.001 {
		t.Fatalf("tree after AddEdge: hit=%v dist %v (before %v)", hit, after.Dist[far], farBefore)
	}
}

// TestTreeCacheSizeCap checks the bound Trim sets: with room for one batch
// of trees, least recently used go first and an evicted source is searched
// again; a tree handed out since the last Bind is never re-rooted under its
// holder — the search carves past the bound — and a Trim under the store's
// size frees the last batch.
func TestTreeCacheSizeCap(t *testing.T) {
	const k = treeBatchSize
	g := benchGraph(2*k+4, 3)
	var s TreeStore
	bind(&s, g, nil)
	s.Trim(s.MemBytes() + batchBytes(g.NumNodes()))
	evicted := 0
	for src := NodeID(0); src < 2*k+3; src++ {
		bind(&s, g, nil) // one search per source
		if _, _, ev := s.Tree(src); ev {
			evicted++
		}
	}
	if len(s.used) != k || len(s.batches) != 1 || evicted != k+3 {
		t.Fatalf("%d trees in %d batches, %d evicted; want the bound of %d in 1, %d evicted", len(s.used), len(s.batches), evicted, k, k+3)
	}
	bind(&s, g, nil)
	s.Tree(k + 3) // the oldest becomes the newest
	if _, hit, ev := s.Tree(0); hit || !ev {
		t.Fatalf("source 0: hit=%v evicted=%v, want a miss that re-roots the least recently used", hit, ev)
	}
	if _, hit, _ := s.Tree(k + 3); !hit {
		t.Fatal("the tree just served was evicted before older ones")
	}
	tree, hit, _ := s.Tree(k + 4)
	if hit {
		t.Fatal("the least recently used tree survived")
	}
	full, _ := tree.To(NewScratch(), None)
	sameTree(t, full, g.Dijkstra(k+4, nil))

	// Once every tree is held by this search (k+4 re-rooted k+5's), a new
	// source carves a batch.
	for src := NodeID(k + 6); src < 2*k+3; src++ {
		if _, hit, _ := s.Tree(src); !hit {
			t.Fatalf("source %d was not kept", src)
		}
	}
	if _, hit, ev := s.Tree(1); hit || ev || len(s.used) != k+1 || len(s.batches) != 2 {
		t.Fatalf("a held tree was re-rooted (hit=%v evicted=%v) or none was carved (%d trees)", hit, ev, len(s.used))
	}
	if ev := s.Trim(s.MemBytes() - 1); ev != 1 || len(s.used) != k || len(s.batches) != 1 {
		t.Fatalf("Trim under the store's size evicted %d trees, leaving %d in %d batches; want the last batch's 1 gone", ev, len(s.used), len(s.batches))
	}
}

// TestViewCacheSizeCap checks the bound on retained views: however many
// distinct contents pass through, the store keeps one, and the trees of a
// displaced view lend their storage to the next content's trees instead of
// adding to it. A budget smaller than the view itself empties the store.
func TestViewCacheSizeCap(t *testing.T) {
	g := benchGraph(20, 3)
	res := fullResiduals(g)
	var s TreeStore
	bind(&s, g, res)
	s.Tree(1)
	s.Tree(2)
	size := s.MemBytes()
	dropped := 0
	for e := 0; e < 10; e++ {
		res[e] = 0
		_, reused, evicted := bind(&s, g, res)
		if reused {
			t.Fatalf("content %d: a view with fewer admissible arcs was reused", e+2)
		}
		dropped += evicted
		s.Tree(NodeID(e % 3))
		s.Tree(NodeID(e%3 + 1))
		if got := s.MemBytes(); got > size {
			t.Fatalf("content %d: the store grew from %d to %d bytes", e+2, size, got)
		}
	}
	if dropped != 20 || len(s.used) != 2 {
		t.Fatalf("%d trees dropped with displaced views, %d kept; want 20 and 2", dropped, len(s.used))
	}
	if ev := s.Trim(s.view.MemBytes() - 1); ev != 2 || s.MemBytes() != 0 {
		t.Fatalf("a budget below the view: %d evicted, %d bytes left", ev, s.MemBytes())
	}
}

// TestTreeCacheLookupZeroAllocs is the hit-path allocation budget,
// mirroring TestDijkstraWithZeroAllocs: what an embed does when it finds its
// view and tree kept — bind over its residual row, be served the tree and
// read it — must not allocate at all.
func TestTreeCacheLookupZeroAllocs(t *testing.T) {
	g := benchGraph(100, 4)
	res := fullResiduals(g)
	var s TreeStore
	bind(&s, g, res)
	tree, _, _ := s.Tree(5)
	sc := NewScratch()
	tree.To(sc, None)
	allocs := testing.AllocsPerRun(20, func() {
		if _, reused, _ := bind(&s, g, res); !reused {
			t.Fatal("warm view missed")
		}
		tree, hit, _ := s.Tree(5)
		if !hit {
			t.Fatal("warm tree missed")
		}
		tree.To(sc, 40)
	})
	if allocs != 0 {
		t.Fatalf("hit path allocated %v objects per run, want 0", allocs)
	}
}
