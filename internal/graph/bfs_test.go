package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// minHop is the fewest-hop path src→dst under opts, found on a view
// compiled from them.
func minHop(g *Graph, src, dst NodeID, opts *CostOptions) (Path, bool) {
	edges, ok := g.CompileView(opts).AppendMinHopPath(NewScratch(), nil, src, dst)
	return Path{From: src, Edges: edges}, ok
}

func TestMinHopPathPrefersFewerHops(t *testing.T) {
	// 0-1 direct (price 10) vs 0-2-1 (price 1+1): min-cost takes two
	// hops, min-hop takes the expensive direct link.
	g := New(3)
	g.MustAddEdge(0, 1, 10, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 1, 1, 10)
	hop, ok := minHop(g, 0, 1, nil)
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
	p, ok := minHop(g, 1, 1, nil)
	if !ok || !p.IsEmpty() {
		t.Fatalf("self path = %v ok=%v", p, ok)
	}
	if _, ok := minHop(g, 0, 9, nil); ok {
		t.Fatal("out-of-range dst accepted")
	}
	iso := New(3)
	iso.MustAddEdge(0, 1, 1, 1)
	if _, ok := minHop(iso, 0, 2, nil); ok {
		t.Fatal("unreachable dst returned a path")
	}
	if _, ok := minHop(g, 0, 2, &CostOptions{BannedNodes: map[NodeID]bool{0: true}}); ok {
		t.Fatal("banned source returned a path")
	}
}

func TestMinHopPathHonorsCapacity(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 0.5) // direct but thin
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 1, 1, 10)
	p, ok := minHop(g, 0, 1, &CostOptions{MinCapacity: 1})
	if !ok || p.Len() != 2 {
		t.Fatalf("capacity-filtered min-hop = %v ok=%v, want detour", p, ok)
	}
}

// TestMinHopPathMatchesBFSLevelsProperty checks AppendMinHopPath is
// hop-minimal: its length to every node is the node's BFS level, read as
// the distance of a Dijkstra tree over the same links at unit price.
func TestMinHopPathMatchesBFSLevelsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomConnectedGraph(rng, n, n/2)
		unit := New(n)
		for _, e := range g.Edges() {
			unit.MustAddEdge(e.A, e.B, 1, e.Capacity)
		}
		src := NodeID(rng.Intn(n))
		levels := unit.Dijkstra(src, nil)
		for v := 0; v < n; v++ {
			p, ok := minHop(g, src, NodeID(v), nil)
			if !ok {
				return levels.Dist[v] == Inf
			}
			if float64(p.Len()) != levels.Dist[v] || p.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
