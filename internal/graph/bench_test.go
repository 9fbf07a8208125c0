package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n int, avgDeg float64) *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	// linked holds the pairs joined so far: HasEdge between AddEdges would
	// rebuild the CSR every time.
	linked := map[[2]NodeID]bool{}
	for v := 1; v < n; v++ {
		a := NodeID(rng.Intn(v))
		linked[[2]NodeID{a, NodeID(v)}] = true
		g.MustAddEdge(a, NodeID(v), 1+rng.Float64()*9, 100)
	}
	target := int(avgDeg * float64(n) / 2)
	for g.NumEdges() < target {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if pair := [2]NodeID{min(a, b), max(a, b)}; a != b && !linked[pair] {
			linked[pair] = true
			g.MustAddEdge(a, b, 1+rng.Float64()*9, 100)
		}
	}
	return g
}

func BenchmarkDijkstra500(b *testing.B) {
	g := benchGraph(500, 6)
	view, s := g.CompileView(nil), NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.DijkstraWith(s, NodeID(i%500))
	}
}

// BenchmarkGrowTreeResume500 completes kept trees, as an embed does with a
// destination tree an earlier run grew part of the way: each tree is grown
// as far as one node, as a path search leaves it, then to the end on the
// bucket queue. Compare with BenchmarkDijkstra500, which grows each tree in
// one sweep.
func BenchmarkGrowTreeResume500(b *testing.B) {
	g := benchGraph(500, 6)
	view := g.CompileView(nil)
	s := NewScratch()
	var tree GrowTree
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Reset(view, NodeID(i%500))
		tree.To(s, NodeID((7*i+250)%500))
		tree.To(s, None)
	}
}

// benchCompiledDijkstra compiles opts into one kept view before each search,
// as a caller that reuses no tree does.
func benchCompiledDijkstra(b *testing.B, g *Graph, opts *CostOptions) {
	var view CostView
	var res []float64
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = g.CompileViewInto(&view, opts, res)
		view.DijkstraWith(s, NodeID(i%g.NumNodes()))
	}
}

func BenchmarkDijkstra1000Filtered(b *testing.B) {
	g := benchGraph(1000, 6)
	opts := &CostOptions{MinCapacity: 1}
	benchCompiledDijkstra(b, g, opts)
}

func BenchmarkDijkstra500Filtered(b *testing.B) {
	g := benchGraph(500, 6)
	residual := residualFunc(func(e EdgeID) float64 { return float64(50 + int(e)%51) })
	opts := &CostOptions{MinCapacity: 60, Residual: residual}
	benchCompiledDijkstra(b, g, opts)
}

func BenchmarkDijkstra500Banned(b *testing.B) {
	g := benchGraph(500, 6)
	banE := map[EdgeID]bool{}
	for e := 0; e < g.NumEdges(); e += 7 {
		banE[EdgeID(e)] = true
	}
	banN := map[NodeID]bool{}
	for v := 3; v < 500; v += 29 {
		banN[NodeID(v)] = true
	}
	opts := &CostOptions{BannedEdges: banE, BannedNodes: banN}
	benchCompiledDijkstra(b, g, opts)
}

// BenchmarkCostViewCompile measures the per-(epoch, options) cost the
// kernel pays once and then amortizes over every source: a bulk residual
// export plus one dense pass over the CSR arcs.
func BenchmarkCostViewCompile(b *testing.B) {
	g := benchGraph(1000, 6)
	residual := residualFunc(func(e EdgeID) float64 { return float64(50 + int(e)%51) })
	opts := &CostOptions{MinCapacity: 60, Residual: residual}
	var view CostView
	var res []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = g.CompileViewInto(&view, opts, res)
	}
}
