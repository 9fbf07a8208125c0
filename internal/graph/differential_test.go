package graph

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// This file differentially tests the view-based search kernel (compiled
// CostView + bucket queue / 4-ary heap) against two independent
// implementations: the pre-v2 binary-heap Dijkstra running on the scalar
// admits() path, and a naive Bellman-Ford oracle. All three fold path
// costs left-to-right over the same float64 prices, so the minima they
// converge to are bitwise identical — the tests demand exact equality,
// not tolerance.

// legacyHeap is the old container/heap-backed priority queue, ordered by
// dist alone (the pre-v2 tie-break was whatever sift order produced).
type legacyHeap []distItem

func (h legacyHeap) Len() int            { return len(h) }
func (h legacyHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h legacyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *legacyHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *legacyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// newShortestTree returns a tree of n nodes in its resting state, as the
// legacy kernel expects to find it.
func newShortestTree(n int) *ShortestTree {
	t := &ShortestTree{Dist: make([]float64, n), parent: make([]EdgeID, n), prev: make([]NodeID, n)}
	for i := range t.Dist {
		t.Dist[i], t.parent[i], t.prev[i] = Inf, None, None
	}
	return t
}

// legacyDijkstra is a faithful copy of the pre-v2 kernel: binary heap,
// per-arc admits() calls, per-arc Edge() price lookups.
func legacyDijkstra(g *Graph, src NodeID, opts *CostOptions) *ShortestTree {
	t := newShortestTree(g.NumNodes())
	t.Src = src
	if int(src) >= g.NumNodes() || src < 0 || (opts != nil && opts.BannedNodes[src]) {
		return t
	}
	t.Dist[src] = 0
	h := &legacyHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		item := heap.Pop(h).(distItem)
		v, d := item.node, item.dist
		if d > t.Dist[v] {
			continue
		}
		for _, arc := range g.Neighbors(v) {
			if !opts.admits(g, arc) {
				continue
			}
			nd := d + g.Edge(arc.Edge).Price
			if nd < t.Dist[arc.To] {
				t.Dist[arc.To] = nd
				t.parent[arc.To] = arc.Edge
				t.prev[arc.To] = v
				heap.Push(h, distItem{node: arc.To, dist: nd})
			}
		}
	}
	return t
}

// bellmanFord is the brute-force oracle: |V|-1 rounds of relaxing every
// admissible arc. No priority structure at all, so a bug shared by both
// queue implementations cannot hide here.
func bellmanFord(g *Graph, src NodeID, opts *CostOptions) []float64 {
	n := g.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = Inf
	}
	if int(src) >= n || src < 0 || (opts != nil && opts.BannedNodes[src]) {
		return dist
	}
	dist[src] = 0
	for round := 0; round < n-1; round++ {
		changed := false
		for v := 0; v < n; v++ {
			if dist[v] == Inf {
				continue
			}
			for _, arc := range g.Neighbors(NodeID(v)) {
				if !opts.admits(g, arc) {
					continue
				}
				if nd := dist[v] + g.Edge(arc.Edge).Price; nd < dist[arc.To] {
					dist[arc.To] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// diffOptsMatrix builds the option sets one seeded graph is tested under:
// unfiltered, capacity-filtered through a residual ledger stand-in, and
// edge/node bans.
func diffOptsMatrix(rng *rand.Rand, g *Graph) []*CostOptions {
	residual := residualFunc(func(e EdgeID) float64 {
		// Deterministic pseudo-ledger: a third of the edges look booked.
		if int(e)%3 == 0 {
			return 0.25
		}
		return 2 + float64(int(e)%5)
	})
	banE := map[EdgeID]bool{}
	for i := 0; i < g.NumEdges()/4; i++ {
		banE[EdgeID(rng.Intn(g.NumEdges()))] = true
	}
	banN := map[NodeID]bool{}
	for i := 0; i < g.NumNodes()/5; i++ {
		banN[NodeID(rng.Intn(g.NumNodes()))] = true
	}
	return []*CostOptions{
		nil,
		{MinCapacity: 1, Residual: residual},
		{BannedEdges: banE, BannedNodes: banN},
		{MinCapacity: 1, Residual: residual, BannedEdges: banE, BannedNodes: banN},
	}
}

// checkParentTree verifies the structural invariants of a search result:
// every reachable non-source node has an admissible parent arc from its
// predecessor whose relaxation reproduces Dist exactly.
func checkParentTree(t *testing.T, g *Graph, tree *ShortestTree, opts *CostOptions) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		node := NodeID(v)
		if !tree.Reachable(node) || node == tree.Src {
			continue
		}
		pv, pe := tree.prev[node], tree.parent[node]
		if pv == None || pe == None {
			t.Fatalf("reachable node %d has no parent", v)
		}
		edge := g.Edge(pe)
		if edge.Other(pv) != node {
			t.Fatalf("parent edge %d does not connect %d to %d", pe, pv, v)
		}
		if !opts.admits(g, Arc{To: node, Edge: pe}) {
			t.Fatalf("parent edge %d of node %d is inadmissible", pe, v)
		}
		if want := tree.Dist[pv] + edge.Price; tree.Dist[node] != want {
			t.Fatalf("Dist[%d] = %v, want parent relaxation %v", v, tree.Dist[node], want)
		}
	}
}

func TestDijkstraKernelDifferential(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			n := 4 + rng.Intn(40)
			g := randomConnectedGraph(rng, n, rng.Intn(3*n))
			for oi, opts := range diffOptsMatrix(rng, g) {
				view := g.CompileView(opts)
				for trial := 0; trial < 4; trial++ {
					src := NodeID(rng.Intn(n))
					got := view.DijkstraWith(NewScratch(), src)
					legacy := legacyDijkstra(g, src, opts)
					oracle := bellmanFord(g, src, opts)
					for v := 0; v < n; v++ {
						if got.Dist[v] != legacy.Dist[v] {
							t.Fatalf("opts[%d] src=%d: Dist[%d] = %v, legacy %v",
								oi, src, v, got.Dist[v], legacy.Dist[v])
						}
						if got.Dist[v] != oracle[v] {
							t.Fatalf("opts[%d] src=%d: Dist[%d] = %v, oracle %v",
								oi, src, v, got.Dist[v], oracle[v])
						}
					}
					checkParentTree(t, g, got, opts)
					checkParentTree(t, g, legacy, opts)
				}
			}
		})
	}
}

// TestDijkstraKernelDifferentialScratch repeats the comparison through the
// scratch-pooled entry points (DijkstraWith reuses buffers across queries),
// catching any state leaking between searches.
func TestDijkstraKernelDifferentialScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomConnectedGraph(rng, 60, 120)
	s := GetScratch()
	defer PutScratch(s)
	for oi, opts := range diffOptsMatrix(rng, g) {
		for trial := 0; trial < 6; trial++ {
			src := NodeID(rng.Intn(60))
			got := g.DijkstraWith(s, src, opts)
			oracle := bellmanFord(g, src, opts)
			for v := 0; v < 60; v++ {
				if got.Dist[v] != oracle[v] {
					t.Fatalf("opts[%d] src=%d: Dist[%d] = %v, oracle %v",
						oi, src, v, got.Dist[v], oracle[v])
				}
			}
			checkParentTree(t, g, got, opts)
		}
	}
}
