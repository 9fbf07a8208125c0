package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestDijkstraWithReusedScratch reuses one Scratch across many runs,
// graphs and sizes and checks every tree matches the one a fresh scratch
// grows exactly — including the sparse reset when the scratch shrinks to a
// smaller graph.
func TestDijkstraWithReusedScratch(t *testing.T) {
	s := NewScratch()
	sizes := []int{40, 80, 25, 60} // deliberately non-monotone
	for trial, n := range sizes {
		rng := rand.New(rand.NewSource(int64(trial) + 7))
		g := benchGraph(n, 4)
		for _, e := range g.Edges() {
			if rng.Intn(2) == 0 {
				g.edges[e.ID].Capacity = 10
			}
		}
		g.csr.Store(nil) // capacities changed behind AddEdge's back
		view := g.CompileView(&CostOptions{
			MinCapacity: 50, // half the edges get capacity below this
			BannedNodes: map[NodeID]bool{NodeID(n - 1): true},
		})
		for src := 0; src < n; src += 5 {
			want := view.DijkstraWith(NewScratch(), NodeID(src))
			got := view.DijkstraWith(s, NodeID(src))
			if !reflect.DeepEqual(want.Dist, got.Dist) {
				t.Fatalf("n=%d src=%d: Dist mismatch", n, src)
			}
			if !reflect.DeepEqual(want.parent, got.parent) || !reflect.DeepEqual(want.prev, got.prev) {
				t.Fatalf("n=%d src=%d: parent/prev mismatch", n, src)
			}
			for v := 0; v < n; v++ {
				wp, wok := want.PathTo(NodeID(v))
				gp, gok := got.PathTo(NodeID(v))
				if wok != gok || !reflect.DeepEqual(wp, gp) {
					t.Fatalf("n=%d src=%d v=%d: PathTo mismatch", n, src, v)
				}
			}
		}
	}
}

// TestMinHopPathWithMatchesMinHopPath checks the view's min-hop search
// returns the identical path on one Scratch shared across every query as
// on a fresh one, keeping the prefix it appends to, under a capacity floor
// and under bans.
func TestMinHopPathWithMatchesMinHopPath(t *testing.T) {
	g := benchGraph(60, 4)
	s := NewScratch()
	for _, opts := range []*CostOptions{
		{MinCapacity: 1},
		{BannedEdges: map[EdgeID]bool{0: true, 5: true, 9: true}, BannedNodes: map[NodeID]bool{4: true, 21: true}},
	} {
		view := g.CompileView(opts)
		for src := 0; src < 60; src += 3 {
			for dst := 0; dst < 60; dst += 7 {
				want, wok := view.AppendMinHopPath(NewScratch(), nil, NodeID(src), NodeID(dst))
				prefix := []EdgeID{99}
				got, gok := view.AppendMinHopPath(s, prefix, NodeID(src), NodeID(dst))
				if gok != wok || got[0] != 99 || !slices.Equal(got[1:], want) {
					t.Fatalf("src=%d dst=%d: shared scratch appended %v/%v, want [99]+%v/%v", src, dst, got, gok, want, wok)
				}
			}
		}
	}
}

// TestScratchMemBytesCountsItsRows checks MemBytes sees what each search
// grows: 24 bytes a node for a Dijkstra tree, 32 a state for a layered
// search, and a smaller search afterwards sheds none of it.
func TestScratchMemBytesCountsItsRows(t *testing.T) {
	s := NewScratch()
	if got := s.MemBytes(); got != 0 {
		t.Fatalf("fresh scratch pins %d bytes", got)
	}
	g := lineGraph(1000)
	view := g.CompileView(nil)
	view.DijkstraWith(s, 0)
	tree := s.MemBytes()
	if tree < 24*1000 {
		t.Fatalf("after a 1000-node Dijkstra: %d bytes, want at least %d", tree, 24*1000)
	}
	rent := make([]float64, 1000)
	view.LayeredDijkstraWith(s, &LayeredQuery{Rent: [][]float64{rent, rent, rent}, Seeds: []LayeredSeed{{Node: 0}}, Target: None, MaxExits: 1})
	if got := s.MemBytes(); got < tree+32*4*1000 {
		t.Fatalf("after a 3-layer search: %d bytes, want at least %d", got, tree+32*4*1000)
	}
	layered := s.MemBytes()
	small := lineGraph(10).CompileView(nil)
	small.DijkstraWith(s, 0)
	small.LayeredDijkstraWith(s, &LayeredQuery{Rent: [][]float64{rent[:10]}, Seeds: []LayeredSeed{{Node: 0}}, Target: None, MaxExits: 1})
	if got := s.MemBytes(); got != layered {
		t.Fatalf("smaller searches moved MemBytes %d → %d; the rows only grow", layered, got)
	}
}

// TestDijkstraWithZeroAllocs is the steady-state allocation budget for the
// hot path: once a Scratch has warmed up to the graph size, a full Dijkstra
// query on a compiled view must not allocate at all.
func TestDijkstraWithZeroAllocs(t *testing.T) {
	view, s := benchGraph(300, 6).CompileView(nil), NewScratch()
	view.DijkstraWith(s, 0) // warm the scratch arrays
	allocs := testing.AllocsPerRun(20, func() {
		view.DijkstraWith(s, NodeID(17))
	})
	if allocs != 0 {
		t.Fatalf("DijkstraWith allocated %v objects per run, want 0", allocs)
	}
}

// TestPutScratchDropsOversized pins the pool's one rule: a scratch that pins
// more than MaxPooledBytes never comes back out of the pool, and one under
// it does.
func TestPutScratchDropsOversized(t *testing.T) {
	small, huge := NewScratch(), NewScratch()
	small.tree.rest(300)
	huge.tree.rest(MaxPooledBytes/24 + 1)
	if small.MemBytes() > MaxPooledBytes || huge.MemBytes() <= MaxPooledBytes {
		t.Fatalf("scratches of %d and %d bytes do not straddle the %d cap", small.MemBytes(), huge.MemBytes(), MaxPooledBytes)
	}
	// The pool may drop anything (a GC, or at random under -race): retry
	// until the small scratch comes back.
	for i := 0; ; i++ {
		PutScratch(small)
		if GetScratch() == small {
			break
		}
		if i == 100 {
			t.Fatal("a scratch under the cap was never pooled")
		}
	}
	PutScratch(huge)
	for range 100 {
		if GetScratch() == huge {
			t.Fatal("a scratch over the cap was pooled")
		}
	}
}

// TestCSRMatchesAdjacency checks the flat view agrees with Neighbors and is
// rebuilt after AddEdge invalidates it.
func TestCSRMatchesAdjacency(t *testing.T) {
	g := benchGraph(50, 5)
	check := func() {
		t.Helper()
		arcs, off := g.CSR()
		if got, want := len(arcs), 2*g.NumEdges(); got != want {
			t.Fatalf("CSR arcs length %d, want %d", got, want)
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !reflect.DeepEqual([]Arc(arcs[off[v]:off[v+1]]), g.Neighbors(NodeID(v))) {
				t.Fatalf("CSR row %d disagrees with Neighbors", v)
			}
		}
	}
	check()
	g.MustAddEdge(0, 49, 2, 100)
	check()
	g.MustAddEdge(3, 31, 1, 50)
	g.MustAddEdge(8, 22, 4, 75)
	check()
}

// TestScratchVisitedEpochWrap forces the uint32 epoch to wrap and checks the
// visited set still starts each run empty.
func TestScratchVisitedEpochWrap(t *testing.T) {
	s := NewScratch()
	s.visitedReset(4)
	s.visit(2)
	s.epoch = ^uint32(0) // next reset wraps to 0 and must re-zero stamps
	s.stamp[1] = 0       // pretend a very old run stamped node 1 at epoch 0
	s.visitedReset(4)
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	for v := NodeID(0); v < 4; v++ {
		if s.visited(v) {
			t.Fatalf("node %d visited after wrap reset", v)
		}
	}
}
