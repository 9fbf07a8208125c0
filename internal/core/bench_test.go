package core

import (
	"context"
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// benchProblem draws one Table 2-scale instance.
func benchProblem(b testing.TB) *Problem {
	b.Helper()
	return randomProblem(rand.New(rand.NewSource(1)), 500, 10, 5)
}

func BenchmarkForwardSearch(b *testing.B) {
	p := benchProblem(b)
	required := p.LayerSpecs()[0].Required(p.Net.Catalog)
	mem := &searchMem{}
	// The residual rows are read once per run, not per search.
	res := readResiduals(network.NewLedger(p.Net), nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree := runSearch(p, p.Src, searchConfig{mem: mem, required: required, res: &res})
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

// BenchmarkEmbedMBBE is the uncached embed of a paper-scale MBBE instance:
// no store attached, so the run compiles its own view and searches its own
// Dijkstra trees.
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

// BenchmarkEmbedMBBECached is the best case for the cross-request cache:
// repeated embeds against a ledger nobody touches, the shared view and
// every Dijkstra tree on it warm. Compare against
// BenchmarkEmbedMBBE for the cache's speedup, and see
// BenchmarkEmbedMBBEChurn for the same embed with the ledger moving.
func BenchmarkEmbedMBBECached(b *testing.B) {
	p := benchProblem(b)
	p.Ledger = network.NewLedger(p.Net)
	opts := MBBEOptions()
	opts.PathCache = graph.NewTreeCache(0)
	if _, err := Embed(p, opts); err != nil { // cold pass fills the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Embed(p, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, _, _ := opts.PathCache.Stats()
	if hits == 0 {
		b.Fatal("warm benchmark never hit the cache")
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
	opts.PathCache = graph.NewTreeCache(0)
	if _, err := Embed(p, opts); err != nil { // cold pass fills the cache
		b.Fatal(err)
	}
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
	if _, misses, _ := opts.PathCache.Stats(); misses > uint64(p.Net.G.NumNodes()) {
		b.Fatalf("churn benchmark searched %d trees: the ledger's churn is evicting the shared view", misses)
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
