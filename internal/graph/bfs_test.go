package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBFSLevelsLine(t *testing.T) {
	g := lineGraph(4)
	lv := g.BFSLevels(0)
	for v, want := range []int{0, 1, 2, 3} {
		if lv[v] != want {
			t.Fatalf("level[%d] = %d, want %d", v, lv[v], want)
		}
	}
}

func TestBFSLevelsUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	lv := g.BFSLevels(0)
	if lv[2] != -1 {
		t.Fatalf("isolated node level = %d, want -1", lv[2])
	}
}

func TestBFSLevelsWithinRestriction(t *testing.T) {
	// 0-1-2 and 0-3-2: forbid 1, node 2 must be found via 3 at level 2.
	g := New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	g.MustAddEdge(0, 3, 1, 1)
	g.MustAddEdge(3, 2, 1, 1)
	lv := g.BFSLevelsWithin(0, func(v NodeID) bool { return v != 1 })
	if lv[1] != -1 {
		t.Fatal("excluded node was visited")
	}
	if lv[2] != 2 || lv[3] != 1 {
		t.Fatalf("levels = %v", lv)
	}
}

func TestMinHopPathPrefersFewerHops(t *testing.T) {
	// 0-1 direct (price 10) vs 0-2-1 (price 1+1): min-cost takes two
	// hops, min-hop takes the expensive direct link.
	g := New(3)
	g.MustAddEdge(0, 1, 10, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 1, 1, 10)
	hop, ok := g.MinHopPath(0, 1, nil)
	if !ok || hop.Len() != 1 {
		t.Fatalf("min-hop path = %v ok=%v, want 1 hop", hop, ok)
	}
	cost, ok := g.MinCostPath(0, 1, nil)
	if !ok || cost.Len() != 2 {
		t.Fatalf("min-cost path = %v, want 2 hops", cost)
	}
}

func TestMinHopPathEdgeCases(t *testing.T) {
	g := lineGraph(3)
	p, ok := g.MinHopPath(1, 1, nil)
	if !ok || !p.IsEmpty() {
		t.Fatalf("self path = %v ok=%v", p, ok)
	}
	if _, ok := g.MinHopPath(0, 9, nil); ok {
		t.Fatal("out-of-range dst accepted")
	}
	iso := New(3)
	iso.MustAddEdge(0, 1, 1, 1)
	if _, ok := iso.MinHopPath(0, 2, nil); ok {
		t.Fatal("unreachable dst returned a path")
	}
	if _, ok := g.MinHopPath(0, 2, &CostOptions{BannedNodes: map[NodeID]bool{0: true}}); ok {
		t.Fatal("banned source returned a path")
	}
}

func TestMinHopPathHonorsCapacity(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 0.5) // direct but thin
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 1, 1, 10)
	p, ok := g.MinHopPath(0, 1, &CostOptions{MinCapacity: 1})
	if !ok || p.Len() != 2 {
		t.Fatalf("capacity-filtered min-hop = %v ok=%v, want detour", p, ok)
	}
}

func TestMinHopPathMatchesBFSLevelsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomConnectedGraph(rng, n, n/2)
		src := NodeID(rng.Intn(n))
		lv := g.BFSLevels(src)
		for v := 0; v < n; v++ {
			p, ok := g.MinHopPath(src, NodeID(v), nil)
			if !ok {
				return lv[v] == -1
			}
			if p.Len() != lv[v] || p.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSLevelsLowerBoundDijkstraHopsProperty(t *testing.T) {
	// With unit prices, Dijkstra distance equals BFS hop count.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := New(n)
		for v := 1; v < n; v++ {
			g.MustAddEdge(NodeID(rng.Intn(v)), NodeID(v), 1, 1)
		}
		src := NodeID(rng.Intn(n))
		lv := g.BFSLevels(src)
		tree := g.Dijkstra(src, nil)
		for v := 0; v < n; v++ {
			if float64(lv[v]) != tree.Dist[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
