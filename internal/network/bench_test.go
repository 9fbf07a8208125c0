package network

import (
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
)

// benchNet builds a 500-node random network with one instance of every
// regular VNF kind on each node — sized like the paper's simulation
// topologies, so the Snapshot numbers reflect the server's real
// snapshot cost.
func benchNet(b *testing.B) *Network {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	// Capacities are effectively unbounded so long-running commit
	// benchmarks never trip admission failures.
	const nodes, kinds, bigCap = 500, 6, graph.MaxAmount
	g := graph.New(nodes)
	for v := 1; v < nodes; v++ {
		g.MustAddEdge(graph.NodeID(rng.Intn(v)), graph.NodeID(v), 1+rng.Float64(), bigCap)
	}
	for i := 0; i < 3*nodes; i++ {
		a, c := rng.Intn(nodes), rng.Intn(nodes)
		if a == c {
			continue
		}
		if _, err := g.AddEdge(graph.NodeID(a), graph.NodeID(c), 1+rng.Float64(), bigCap); err != nil {
			b.Fatal(err)
		}
	}
	net := New(g, Catalog{N: kinds})
	for v := 0; v < nodes; v++ {
		for f := VNFID(1); f <= VNFID(kinds); f++ {
			net.MustAddInstance(graph.NodeID(v), f, 1+rng.Float64(), bigCap)
		}
	}
	net.MustAddInstance(0, net.Catalog.Merger(), 1, bigCap)
	return net
}

// seedUsage commits usage on a spread of edges and instances so snapshots
// copy realistic, non-empty state.
func seedUsage(b *testing.B, l *Ledger, touched int) {
	b.Helper()
	rng := rand.New(rand.NewSource(11))
	g := l.Network().G
	for i := 0; i < touched; i++ {
		if err := l.ReserveEdge(graph.EdgeID(rng.Intn(g.NumEdges())), 1); err != nil {
			b.Fatal(err)
		}
		if err := l.ReserveInstance(graph.NodeID(rng.Intn(g.NumNodes())), VNFID(1+rng.Intn(6)), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshot is what the server pays per speculative embed: a copy
// of the live ledger's dense rows — Fresh as Snapshot takes it, Into as a
// worker rewrites the one it keeps (SnapshotInto), which must not allocate
// once its rows are warm.
func BenchmarkSnapshot(b *testing.B) {
	live := NewLedger(benchNet(b))
	seedUsage(b, live, 200)
	b.Run("Fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = live.Snapshot()
		}
	})
	b.Run("Into", func(b *testing.B) {
		dst := live.SnapshotInto(nil)
		if allocs := testing.AllocsPerRun(100, func() { dst = live.SnapshotInto(dst) }); allocs != 0 {
			b.Fatalf("SnapshotInto allocates %v objects per call on a warm ledger, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = live.SnapshotInto(dst)
		}
	})
}

// BenchmarkInstanceResiduals is what an embed pays to read the ledger's
// instance capacities once, into rows it keeps. It may not allocate into a
// warm buffer.
func BenchmarkInstanceResiduals(b *testing.B) {
	live := NewLedger(benchNet(b))
	seedUsage(b, live, 200)
	rows := live.InstanceResiduals(nil)
	if allocs := testing.AllocsPerRun(100, func() { rows = live.InstanceResiduals(rows) }); allocs != 0 {
		b.Fatalf("InstanceResiduals allocates %v objects per call into a warm buffer, want 0", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows = live.InstanceResiduals(rows)
	}
}
