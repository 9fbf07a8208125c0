package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// dijkstra is the complete min-cost tree from src under opts on a view
// compiled for it alone; the tree owns its scratch, so it may be kept.
func dijkstra(g *Graph, src NodeID, opts *CostOptions) *ShortestTree {
	return g.CompileView(opts).DijkstraWith(NewScratch(), src)
}

// minCostPath is one cheapest path src→dst under opts, read off dijkstra.
func minCostPath(g *Graph, src, dst NodeID, opts *CostOptions) (Path, bool) {
	return dijkstra(g, src, opts).PathTo(dst)
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	tree := dijkstra(g, 0, nil)
	for v := 0; v < 5; v++ {
		if tree.Dist[v] != float64(v) {
			t.Fatalf("Dist[%d] = %v, want %d", v, tree.Dist[v], v)
		}
	}
	p, ok := tree.PathTo(4)
	if !ok || p.Len() != 4 || p.To(g) != 4 {
		t.Fatalf("PathTo(4) = %v ok=%v", p, ok)
	}
}

func TestDijkstraPrefersCheaperLongerRoute(t *testing.T) {
	// 0-1 direct price 10; 0-2-1 price 2+2=4.
	g := New(3)
	g.MustAddEdge(0, 1, 10, 10)
	g.MustAddEdge(0, 2, 2, 10)
	g.MustAddEdge(2, 1, 2, 10)
	p, ok := minCostPath(g, 0, 1, nil)
	if !ok {
		t.Fatal("no path")
	}
	if p.Cost(g) != 4 || p.Len() != 2 {
		t.Fatalf("path cost %v len %d, want 4 over 2 hops", p.Cost(g), p.Len())
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	tree := dijkstra(g, 0, nil)
	if tree.Reachable(2) {
		t.Fatal("isolated node reported reachable")
	}
	if _, ok := tree.PathTo(2); ok {
		t.Fatal("PathTo returned a path to unreachable node")
	}
	if !math.IsInf(tree.Dist[2], 1) {
		t.Fatal("unreachable distance not +Inf")
	}
}

func TestDijkstraCapacityFilter(t *testing.T) {
	// Cheap edge is too thin; must take the expensive fat edge.
	g := New(2)
	g.MustAddEdge(0, 1, 1, 0.5) // thin
	g.MustAddEdge(0, 1, 5, 2)   // fat
	p, ok := minCostPath(g, 0, 1, &CostOptions{MinCapacity: 1})
	if !ok {
		t.Fatal("no path")
	}
	if p.Cost(g) != 5 {
		t.Fatalf("capacity filter ignored: cost %v, want 5", p.Cost(g))
	}
	// Demand exceeding every capacity: no path.
	if _, ok := minCostPath(g, 0, 1, &CostOptions{MinCapacity: 3}); ok {
		t.Fatal("path found despite insufficient capacity everywhere")
	}
}

// residualFunc is a ResidualSource that answers every edge from a function,
// the stand-in for a ledger.
type residualFunc func(EdgeID) float64

func (f residualFunc) EdgeResiduals(dst []float64) []float64 {
	for e := range dst {
		dst[e] = f(EdgeID(e))
	}
	return dst
}

func TestDijkstraResidualOverridesStaticCapacity(t *testing.T) {
	g := New(2)
	cheap := g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(0, 1, 5, 10)
	residual := residualFunc(func(id EdgeID) float64 {
		if id == cheap {
			return 0 // cheap edge fully booked
		}
		return 10
	})
	p, ok := minCostPath(g, 0, 1, &CostOptions{MinCapacity: 1, Residual: residual})
	if !ok || p.Cost(g) != 5 {
		t.Fatalf("residual filter not applied: %v ok=%v", p, ok)
	}
}

func TestDijkstraBans(t *testing.T) {
	g := New(4)
	e01 := g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)

	p, ok := minCostPath(g, 0, 3, &CostOptions{BannedEdges: map[EdgeID]bool{e01: true}})
	if !ok {
		t.Fatal("no path with banned edge")
	}
	if nodes := p.Nodes(g); nodes[1] != 2 {
		t.Fatalf("banned edge still used: %v", nodes)
	}
	p, ok = minCostPath(g, 0, 3, &CostOptions{BannedNodes: map[NodeID]bool{1: true}})
	if !ok || p.Nodes(g)[1] != 2 {
		t.Fatalf("banned node still used: %v ok=%v", p, ok)
	}
	if _, ok := minCostPath(g, 0, 3, &CostOptions{BannedNodes: map[NodeID]bool{1: true, 2: true}}); ok {
		t.Fatal("path found though every route banned")
	}
}

func TestDijkstraBannedSource(t *testing.T) {
	g := lineGraph(2)
	tree := dijkstra(g, 0, &CostOptions{BannedNodes: map[NodeID]bool{0: true}})
	if tree.Reachable(1) {
		t.Fatal("search from banned source should reach nothing")
	}
}

func TestMinCostPathSameNode(t *testing.T) {
	g := lineGraph(3)
	p, ok := minCostPath(g, 1, 1, nil)
	if !ok || len(p.Edges) != 0 || p.From != 1 {
		t.Fatalf("self path = %v ok=%v", p, ok)
	}
}

// bruteForceDist enumerates all simple paths (exponential; tiny graphs
// only) to cross-check Dijkstra.
func bruteForceDist(g *Graph, src, dst NodeID) float64 {
	best := Inf
	var dfs func(v NodeID, cost float64, visited map[NodeID]bool)
	dfs = func(v NodeID, cost float64, visited map[NodeID]bool) {
		if cost >= best {
			return
		}
		if v == dst {
			best = cost
			return
		}
		for _, arc := range g.Neighbors(v) {
			if visited[arc.To] {
				continue
			}
			visited[arc.To] = true
			dfs(arc.To, cost+g.Edge(arc.Edge).Price, visited)
			delete(visited, arc.To)
		}
	}
	dfs(src, 0, map[NodeID]bool{src: true})
	return best
}

func TestDijkstraMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(7)
		g := randomConnectedGraph(rng, n, rng.Intn(5))
		src := NodeID(rng.Intn(n))
		tree := dijkstra(g, src, nil)
		for v := 0; v < n; v++ {
			want := bruteForceDist(g, src, NodeID(v))
			got := tree.Dist[v]
			if math.Abs(got-want) > 1e-9 {
				return false
			}
			if p, ok := tree.PathTo(NodeID(v)); ok {
				if p.Validate(g) != nil || math.Abs(p.Cost(g)-got) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraPathsAreSimpleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomConnectedGraph(rng, n, n)
		src := NodeID(rng.Intn(n))
		tree := dijkstra(g, src, nil)
		for v := 0; v < n; v++ {
			if p, ok := tree.PathTo(NodeID(v)); ok && !p.Simple(g) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
