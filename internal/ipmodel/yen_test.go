package ipmodel

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"dagsfc/internal/graph"
)

// diamond: two disjoint 0->3 routes plus a direct expensive edge; e0 has
// the given capacity, every other edge 10.
func diamondGraph(e0Capacity float64) *graph.Graph {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, e0Capacity) // e0
	g.MustAddEdge(1, 3, 1, 10)         // e1  route A cost 2
	g.MustAddEdge(0, 2, 2, 10)         // e2
	g.MustAddEdge(2, 3, 2, 10)         // e3  route B cost 4
	g.MustAddEdge(0, 3, 9, 10)         // e4  route C cost 9
	return g
}

func TestKShortestOrdering(t *testing.T) {
	g := diamondGraph(10)
	paths := kShortestPaths(g, 0, 3, 3, nil)
	if len(paths) != 3 {
		t.Fatalf("got %d paths, want 3", len(paths))
	}
	costs := []float64{paths[0].Cost(g), paths[1].Cost(g), paths[2].Cost(g)}
	if costs[0] != 2 || costs[1] != 4 || costs[2] != 9 {
		t.Fatalf("costs = %v, want [2 4 9]", costs)
	}
}

func TestKShortestKLargerThanAvailable(t *testing.T) {
	g := diamondGraph(10)
	paths := kShortestPaths(g, 0, 3, 50, nil)
	if len(paths) != 3 {
		t.Fatalf("got %d loopless paths, want 3", len(paths))
	}
}

func TestKShortestSameNode(t *testing.T) {
	g := diamondGraph(10)
	paths := kShortestPaths(g, 2, 2, 4, nil)
	if len(paths) != 1 || len(paths[0].Edges) != 0 {
		t.Fatalf("self paths = %v", paths)
	}
}

func TestKShortestNoPath(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 1)
	if paths := kShortestPaths(g, 0, 2, 3, nil); paths != nil {
		t.Fatalf("expected nil, got %v", paths)
	}
}

func TestKShortestZeroK(t *testing.T) {
	g := diamondGraph(10)
	if paths := kShortestPaths(g, 0, 3, 0, nil); paths != nil {
		t.Fatalf("k=0 should yield nil, got %v", paths)
	}
}

func TestKShortestHonorsCapacity(t *testing.T) {
	g := diamondGraph(0.1) // route A too thin
	paths := kShortestPaths(g, 0, 3, 3, &graph.CostOptions{MinCapacity: 1})
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 after capacity filter", len(paths))
	}
	if paths[0].Cost(g) != 4 {
		t.Fatalf("cheapest feasible cost %v, want 4", paths[0].Cost(g))
	}
}

// bruteForcePaths enumerates all simple paths between src and dst sorted by
// cost.
func bruteForcePaths(g *graph.Graph, src, dst graph.NodeID) []graph.Path {
	var out []graph.Path
	var dfs func(v graph.NodeID, edges []graph.EdgeID, visited map[graph.NodeID]bool)
	dfs = func(v graph.NodeID, edges []graph.EdgeID, visited map[graph.NodeID]bool) {
		if v == dst {
			out = append(out, graph.Path{From: src, Edges: append([]graph.EdgeID(nil), edges...)})
			return
		}
		for _, arc := range g.Neighbors(v) {
			if visited[arc.To] {
				continue
			}
			visited[arc.To] = true
			dfs(arc.To, append(edges, arc.Edge), visited)
			delete(visited, arc.To)
		}
	}
	if src != dst {
		dfs(src, nil, map[graph.NodeID]bool{src: true})
	} else {
		out = append(out, graph.EmptyPath(src))
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].Cost(g) < out[b].Cost(g) })
	return out
}

func TestKShortestMatchesBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(4)
		g := randomConnectedGraph(rng, n, rng.Intn(3))
		src := graph.NodeID(rng.Intn(n))
		dst := graph.NodeID(rng.Intn(n))
		if src == dst {
			return true
		}
		k := 1 + rng.Intn(4)
		got := kShortestPaths(g, src, dst, k, nil)
		want := bruteForcePaths(g, src, dst)
		if len(want) > k {
			want = want[:k]
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			// Costs must agree (paths may tie and differ).
			if got[i].Cost(g) != want[i].Cost(g) {
				return false
			}
			if got[i].Validate(g) != nil || !got[i].Simple(g) {
				return false
			}
		}
		// No duplicates among results.
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if got[i].Equal(got[j]) {
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

// randomConnectedGraph draws a random spanning tree over n nodes plus up to
// extra further links, prices in [1, 10).
func randomConnectedGraph(rng *rand.Rand, n, extra int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v), 1+rng.Float64()*9, 100)
	}
	for i := 0; i < extra; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			g.MustAddEdge(a, b, 1+rng.Float64()*9, 100)
		}
	}
	return g
}

func BenchmarkKShortest500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := randomConnectedGraph(rng, 500, 0)
	for g.NumEdges() < 1500 {
		a, c := graph.NodeID(rng.Intn(500)), graph.NodeID(rng.Intn(500))
		if a != c && !g.HasEdge(a, c) {
			g.MustAddEdge(a, c, 1+rng.Float64()*9, 100)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kShortestPaths(g, graph.NodeID(i%500), graph.NodeID((i+250)%500), 3, nil)
	}
}
