package core

import (
	"context"
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// BenchmarkDijkstraTable2 sweeps complete Dijkstra trees, one source after
// another on one view and one scratch, over the substrate the repository
// benchmark embeds on: netgen.Default(), Table 2's 500 nodes and its link
// prices. graph's BenchmarkDijkstra500 draws its prices from 1..10 instead,
// which spreads distances far wider over the bucket queue's ring.
func BenchmarkDijkstraTable2(b *testing.B) {
	g := netgen.MustGenerate(netgen.Default(), rand.New(rand.NewSource(1))).G
	view, s := g.CompileView(nil), graph.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		view.DijkstraWith(s, graph.NodeID(i%g.NumNodes()))
	}
}

// benchProblem draws one Table 2-scale instance.
func benchProblem(b testing.TB) *Problem {
	b.Helper()
	return randomProblem(rand.New(rand.NewSource(1)), 500, 10, 5)
}

func BenchmarkForwardSearch(b *testing.B) {
	p := benchProblem(b)
	required := p.LayerSpecs()[0].Required(p.Net.Catalog)
	mem := &searchMem{}
	// The residual rows and the view are read once per run, not per search.
	ledger := network.NewLedger(p.Net)
	res := readResiduals(ledger, nil, nil)
	view := p.Net.G.CompileView(ledger.CostOptions(p.Rate))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := runSearch(p, p.Src, searchConfig{mem: mem, required: required, res: &res, view: view})
		if !tree.Covered() {
			b.Fatal("uncovered")
		}
		mem.reset()
	}
}

func BenchmarkLayerExtensions(b *testing.B) {
	p := benchProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := acquireScratch()
		e := newEmbedder(context.Background(), p, MBBEOptions(), sc)
		e.avgLink = p.Net.AvgLinkPrice()
		if exts := e.buildExtensions(e.layerSpecs()[0], p.Src, nil); len(exts) == 0 {
			b.Fatal("no extensions")
		}
		releaseScratch(sc)
	}
}

// BenchmarkEmbedMBBE is the cold embed of a paper-scale MBBE instance: no
// ledger, so the run compiles its own view and roots its own Dijkstra trees.
func BenchmarkEmbedMBBE(b *testing.B) {
	p := benchProblem(b)
	opts := MBBEOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Embed(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedMBBECached is the best case for the arena's tree store:
// repeated embeds against a ledger nobody touches, the view and every
// Dijkstra tree on it kept. Compare against BenchmarkEmbedMBBE for the
// store's speedup, and see BenchmarkEmbedMBBEChurn for the same embed with
// the ledger moving.
func BenchmarkEmbedMBBECached(b *testing.B) {
	p := benchProblem(b)
	p.Ledger = network.NewLedger(p.Net)
	opts := MBBEOptions()
	if _, err := Embed(p, opts); err != nil { // the cold pass roots the trees
		b.Fatal(err)
	}
	hits := storeCounter(telemetry.MetricPathCacheHits)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Embed(p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if storeCounter(telemetry.MetricPathCacheHits) == hits {
		b.Fatal("warm benchmark never found a tree kept")
	}
}

// BenchmarkEmbedMBBEChurn is EmbedMBBECached shaped like the traffic:
// another flow commits and releases between any two embeds, as a server's
// ledger does between any two admissions, so no two embeds see the same
// ledger epoch — only, at ample capacity, the same admissible links. One
// op is the embed plus that Commit and Release.
func BenchmarkEmbedMBBEChurn(b *testing.B) {
	p := benchProblem(b)
	p.Ledger = network.NewLedger(p.Net)
	other := *p
	other.Src, other.Dst = p.Dst, p.Src
	placed, err := EmbedMBBE(&other)
	if err != nil {
		b.Fatal(err)
	}
	opts := MBBEOptions()
	if _, err := Embed(p, opts); err != nil { // the cold pass roots the trees
		b.Fatal(err)
	}
	builds := storeCounter(telemetry.MetricCostViewBuilds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Commit(&other, placed.Solution); err != nil {
			b.Fatal(err)
		}
		if err := Release(&other, placed.Solution); err != nil {
			b.Fatal(err)
		}
		if _, err := Embed(p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if n := storeCounter(telemetry.MetricCostViewBuilds) - builds; n > float64(b.N)/2 {
		b.Fatalf("churn benchmark compiled %v new views in %d embeds: the ledger's churn is displacing the kept view", n, b.N)
	}
}

// BenchmarkEmbedBBE is the plain BBE embed (tree-path enumeration, no
// mini-path shortcut) on the same instance.
func BenchmarkEmbedBBE(b *testing.B) {
	p := benchProblem(b)
	opts := BBEOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Embed(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidateSolution(b *testing.B) {
	p := benchProblem(b)
	res, err := EmbedMBBE(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(p, res.Solution); err != nil {
			b.Fatal(err)
		}
	}
}

// commitReleaseFixture embeds the Table 2-scale width-3 instance once and
// binds the problem to a live ledger, the way a serving loop holds it.
func commitReleaseFixture(tb testing.TB) (*Problem, *Solution) {
	tb.Helper()
	p := benchProblem(tb)
	res, err := EmbedMBBE(p)
	if err != nil {
		tb.Fatal(err)
	}
	p.Ledger = network.NewLedger(p.Net)
	return p, res.Solution
}

// BenchmarkCommitRelease is the ledger path a flow walks once its
// placement is known: Validate, Commit, Release.
func BenchmarkCommitRelease(b *testing.B) {
	p, sol := commitReleaseFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(p, sol); err != nil {
			b.Fatal(err)
		}
		if _, err := Commit(p, sol); err != nil {
			b.Fatal(err)
		}
		if err := Release(p, sol); err != nil {
			b.Fatal(err)
		}
	}
}
