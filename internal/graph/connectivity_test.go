package graph

import (
	"math/rand"
	"testing"
)

// bridgeFree is the reference for TwoEdgeConnected (Menger): src reaches dst,
// and still does with any one admitted edge taken away.
func bridgeFree(g *Graph, src, dst NodeID, admit func(EdgeID) bool) bool {
	s := NewScratch()
	reach := func(without EdgeID) bool {
		view := g.CompileView(&CostOptions{Residual: residualFunc(func(e EdgeID) float64 {
			if e == without || !admit(e) {
				return 0
			}
			return 1
		}), MinCapacity: 1})
		_, ok := view.AppendMinHopPath(s, nil, src, dst)
		return ok
	}
	if !reach(None) {
		return false
	}
	for e := 0; e < g.NumEdges(); e++ {
		if !reach(EdgeID(e)) {
			return false
		}
	}
	return true
}

func TestTwoEdgeConnectedUndoesTheFirstPath(t *testing.T) {
	// The first breadth-first path 0-1-2-5 crosses both disjoint routes
	// (0-1-4-5 and 0-3-2-5): with its edges deleted outright nothing is left,
	// on the residual graph the second search walks 1-2 backwards.
	g := New(6)
	for _, e := range [][2]NodeID{{0, 1}, {1, 2}, {2, 5}, {0, 3}, {3, 2}, {1, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1], 1, 1)
	}
	all := func(EdgeID) bool { return true }
	s := NewScratch()
	if first, _ := g.CompileView(nil).AppendMinHopPath(s, nil, 0, 5); len(first) != 3 || first[1] != 1 {
		t.Fatalf("the fixture's first path is %v, want it to run over edge 1", first)
	}
	if !g.TwoEdgeConnected(s, 0, 5, all) {
		t.Fatal("0 and 5 have two disjoint routes")
	}
	if g.TwoEdgeConnected(s, 0, 5, func(e EdgeID) bool { return e != 6 }) {
		t.Fatal("without 4-5 every route ends on 2-5")
	}
	if !g.TwoEdgeConnected(s, 3, 3, func(EdgeID) bool { return false }) {
		t.Fatal("a node is 2-edge-connected to itself")
	}
}

func TestTwoEdgeConnectedMatchesBridgeSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := NewScratch()
	yes, no := 0, 0
	for trial := 0; trial < 300; trial++ {
		n := 4 + rng.Intn(12)
		g := New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(NodeID(rng.Intn(v)), NodeID(v), 1, 1)
		}
		for extra := rng.Intn(n); extra > 0; extra-- {
			if a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n)); a != b {
				g.MustAddEdge(a, b, 1, 1) // parallel links included
			}
		}
		closed := EdgeID(rng.Intn(g.NumEdges()))
		admit := func(e EdgeID) bool { return e != closed }
		src, dst := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if src == dst {
			continue
		}
		want := bridgeFree(g, src, dst, admit)
		if got := g.TwoEdgeConnected(s, src, dst, admit); got != want {
			t.Fatalf("trial %d: %d–%d on %d nodes: got %v, want %v", trial, src, dst, n, got, want)
		}
		if want {
			yes++
		} else {
			no++
		}
	}
	if yes < 20 || no < 20 {
		t.Fatalf("vacuous: %d pairs 2-edge-connected, %d not", yes, no)
	}
}

func TestTwoEdgeConnectedAllocatesNothingWarm(t *testing.T) {
	g := New(40)
	for v := 0; v < 40; v++ {
		g.MustAddEdge(NodeID(v), NodeID((v+1)%40), 1, 1)
	}
	all := func(EdgeID) bool { return true }
	s := NewScratch()
	g.TwoEdgeConnected(s, 0, 20, all)
	if allocs := testing.AllocsPerRun(100, func() {
		if !g.TwoEdgeConnected(s, 0, 20, all) {
			t.Fatal("a ring is 2-edge-connected")
		}
	}); allocs != 0 {
		t.Fatalf("%.1f allocations per warm call, want 0", allocs)
	}
}
