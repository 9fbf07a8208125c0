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
	const nodes, kinds, bigCap = 500, 6, 1e12
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

// seedUsage commits usage on a spread of edges and instances so clones
// and snapshots copy realistic, non-empty state.
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

// BenchmarkOverlaySnapshot is what the server pays per speculative embed: an O(overlay deltas) copy
// of a live overlay carrying ~40 uncommitted touches over the same base —
// Fresh as Snapshot clones it, Into as a worker rewrites the one it keeps
// (SnapshotInto), which must not allocate once its maps are warm.
func BenchmarkOverlaySnapshot(b *testing.B) {
	base := NewLedger(benchNet(b))
	seedUsage(b, base, 200)
	ov := base.Overlay()
	seedUsage(b, ov, 20)
	b.Run("Fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ov.Snapshot()
		}
	})
	b.Run("Into", func(b *testing.B) {
		dst := ov.SnapshotInto(nil)
		if allocs := testing.AllocsPerRun(100, func() { dst = ov.SnapshotInto(dst) }); allocs != 0 {
			b.Fatalf("SnapshotInto allocates %v objects per call on a warm ledger, want 0", allocs)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = ov.SnapshotInto(dst)
		}
	})
}

// BenchmarkInstanceResiduals is what an embed pays to read the ledger's
// instance capacities once, into rows it keeps: on the root a library caller
// embeds against, and on the server's shape — a request-sized overlay over
// it. Neither may allocate into a warm buffer.
func BenchmarkInstanceResiduals(b *testing.B) {
	base := NewLedger(benchNet(b))
	seedUsage(b, base, 200)
	ov := base.Overlay()
	seedUsage(b, ov, 20)
	for _, bc := range []struct {
		name   string
		ledger *Ledger
	}{{"Root", base}, {"Overlay", ov}} {
		b.Run(bc.name, func(b *testing.B) {
			rows := bc.ledger.InstanceResiduals(nil)
			if allocs := testing.AllocsPerRun(100, func() { rows = bc.ledger.InstanceResiduals(rows) }); allocs != 0 {
				b.Fatalf("InstanceResiduals allocates %v objects per call into a warm buffer, want 0", allocs)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows = bc.ledger.InstanceResiduals(rows)
			}
		})
	}
}

// BenchmarkOverlayCommit measures folding a request-sized overlay (a few
// dozen touched entries) into its base, including re-validation.
func BenchmarkOverlayCommit(b *testing.B) {
	base := NewLedger(benchNet(b))
	seedUsage(b, base, 200)
	ov := base.Overlay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		seedUsage(b, ov, 20)
		b.StartTimer()
		if err := ov.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}
