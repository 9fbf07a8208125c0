package graph

import (
	"math/rand"
	"testing"
)

func benchGraph(n int, avgDeg float64) *Graph {
	rng := rand.New(rand.NewSource(1))
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(NodeID(rng.Intn(v)), NodeID(v), 1+rng.Float64()*9, 100)
	}
	target := int(avgDeg * float64(n) / 2)
	for g.NumEdges() < target {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a != b && !g.HasEdge(a, b) {
			g.MustAddEdge(a, b, 1+rng.Float64()*9, 100)
		}
	}
	return g
}

func BenchmarkDijkstra500(b *testing.B) {
	g := benchGraph(500, 6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(i%500), nil)
	}
}

func BenchmarkDijkstra1000Filtered(b *testing.B) {
	g := benchGraph(1000, 6)
	opts := &CostOptions{MinCapacity: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(i%1000), opts)
	}
}

func BenchmarkDijkstra500Filtered(b *testing.B) {
	g := benchGraph(500, 6)
	residual := residualFunc(func(e EdgeID) float64 { return float64(50 + int(e)%51) })
	opts := &CostOptions{MinCapacity: 60, Residual: residual}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(i%500), opts)
	}
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Dijkstra(NodeID(i%500), opts)
	}
}

// BenchmarkCostViewCompile measures the per-(epoch, options) cost the
// kernel pays once and then amortizes over every source: a bulk residual
// export plus one dense pass over the CSR arcs.
func BenchmarkCostViewCompile(b *testing.B) {
	g := benchGraph(1000, 6)
	residual := residualFunc(func(e EdgeID) float64 { return float64(50 + int(e)%51) })
	opts := &CostOptions{MinCapacity: 60, Residual: residual}
	s := GetScratch()
	defer PutScratch(s)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.resBuf = g.CompileViewInto(&s.view, opts, s.resBuf)
	}
}
