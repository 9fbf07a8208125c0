package graph

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestDijkstraWithMatchesDijkstra reuses one Scratch across many runs,
// graphs and sizes and checks every tree matches the allocating Dijkstra
// exactly — including the sparse reset when the scratch shrinks to a
// smaller graph.
func TestDijkstraWithMatchesDijkstra(t *testing.T) {
	s := NewScratch()
	sizes := []int{40, 80, 25, 60} // deliberately non-monotone
	for trial, n := range sizes {
		rng := rand.New(rand.NewSource(int64(trial) + 7))
		g := benchGraph(n, 4)
		opts := &CostOptions{
			MinCapacity: 50, // half the edges get capacity below this
			BannedNodes: map[NodeID]bool{NodeID(n - 1): true},
		}
		for _, e := range g.Edges() {
			if rng.Intn(2) == 0 {
				g.edges[e.ID].Capacity = 10
			}
		}
		g.csr.Store(nil) // capacities changed behind AddEdge's back
		for src := 0; src < n; src += 5 {
			want := g.Dijkstra(NodeID(src), opts)
			got := g.DijkstraWith(s, NodeID(src), opts)
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

// TestMinHopPathWithMatchesMinHopPath checks the scratch-backed BFS, and
// the view's appending one, return the identical path to the allocating
// wrapper across a shared Scratch, under a capacity floor and under bans.
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
				wp, wok := g.MinHopPath(NodeID(src), NodeID(dst), opts)
				gp, gok := g.MinHopPathWith(s, NodeID(src), NodeID(dst), opts)
				if wok != gok || !reflect.DeepEqual(wp, gp) {
					t.Fatalf("src=%d dst=%d: %v/%v vs %v/%v", src, dst, wp, wok, gp, gok)
				}
				prefix := []EdgeID{99}
				vp, vok := view.AppendMinHopPath(s, prefix, NodeID(src), NodeID(dst))
				if vok != wok || vp[0] != 99 || wok && !slices.Equal(vp[1:], wp.Edges) || !wok && len(vp) != 1 {
					t.Fatalf("src=%d dst=%d: view appended %v/%v, want [99]+%v/%v", src, dst, vp, vok, wp.Edges, wok)
				}
			}
		}
	}
}

// TestDijkstraWithZeroAllocs is the steady-state allocation budget for the
// hot path: once a Scratch has warmed up to the graph size, a full Dijkstra
// query must not allocate at all.
func TestDijkstraWithZeroAllocs(t *testing.T) {
	g := benchGraph(300, 6)
	s := NewScratch()
	g.CSR()                   // build the adjacency view outside the measurement
	g.DijkstraWith(s, 0, nil) // warm the scratch arrays
	allocs := testing.AllocsPerRun(20, func() {
		g.DijkstraWith(s, NodeID(17), nil)
	})
	if allocs != 0 {
		t.Fatalf("DijkstraWith allocated %v objects per run, want 0", allocs)
	}
}

// TestPutScratchDropsOversized pins the pool-sizing policy: a scratch
// grown by a one-off huge search is dropped once recent demand settles
// back to small graphs, while right-sized scratches keep pooling.
func TestPutScratchDropsOversized(t *testing.T) {
	sized := func(n int) *Scratch {
		s := &Scratch{lastN: n}
		s.tree.rest(n)
		return s
	}
	small := sized(300)
	huge := sized(scratchMinRetain * scratchOversizeFactor * 2)

	// While the huge size is recent demand, the huge scratch is retained —
	// dropping actively-used capacity would just thrash the allocator.
	if !keepScratch(huge, huge.lastN, 0) {
		t.Fatal("scratch sized to current demand was dropped")
	}
	// Once recent demand is small again, the huge scratch is released...
	if keepScratch(huge, small.lastN, 0) {
		t.Fatal("oversized scratch was pooled against small recent demand")
	}
	// ...while the small one still pools (within the absolute floor).
	if !keepScratch(small, small.lastN, 0) {
		t.Fatal("right-sized scratch was dropped")
	}

	// End to end through the demand windows: roll both windows with small
	// puts, then check PutScratch's demand estimate has decayed so the
	// huge scratch gets dropped rather than pooled.
	for i := 0; i < 2*scratchWindowPuts; i++ {
		noteScratchUse(300, 1200)
	}
	if demand, _ := noteScratchUse(300, 1200); demand != 300 {
		t.Fatalf("demand estimate after small-only windows = %d, want 300", demand)
	}
	nodeDemand, arcDemand := noteScratchUse(300, 1200)
	if keepScratch(huge, nodeDemand, arcDemand) {
		t.Fatal("oversized scratch survived decayed demand windows")
	}

	// Arc-sized view arrays are judged against arc demand, not node demand:
	// a scratch whose compiled view grew on a one-off dense graph is also
	// released once arc demand settles.
	arcHuge := sized(300)
	arcHuge.view.price = make([]float64, scratchMinRetain*scratchOversizeFactor*2)
	if keepScratch(arcHuge, 300, 1200) {
		t.Fatal("arc-oversized scratch was pooled against small arc demand")
	}
	if !keepScratch(arcHuge, 300, len(arcHuge.view.price)) {
		t.Fatal("arc-sized scratch matching current arc demand was dropped")
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
