package dagsfc

// One benchmark per table/figure of the paper's evaluation plus
// algorithm-level micro-benchmarks and ablations of MBBE's three
// complementary strategies. The figure benches execute the same code path
// as cmd/dagsfc-bench at one trial per point, so `go test -bench .`
// exercises the full reproduction pipeline end to end; the CLI with
// -trials 100 produces the paper-grade tables.

import (
	"math/rand"
	"strconv"
	"testing"

	"dagsfc/internal/exact"
	"dagsfc/internal/latency"
	"dagsfc/internal/sim"
)

// benchExperiment runs one full sweep per iteration at 1 trial/point.
func benchExperiment(b *testing.B, e *sim.Experiment) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := e.Run(int64(i) + 1)
		if err != nil {
			b.Fatal(err)
		}
		if len(points) != len(e.Xs) {
			b.Fatal("missing points")
		}
	}
}

// BenchmarkFig6aSFCSize regenerates Fig. 6(a): cost vs SFC size (1–9).
func BenchmarkFig6aSFCSize(b *testing.B) { benchExperiment(b, sim.Fig6a(1)) }

// BenchmarkFig6bNetworkSize regenerates Fig. 6(b): cost vs network size
// (10–1000 nodes).
func BenchmarkFig6bNetworkSize(b *testing.B) { benchExperiment(b, sim.Fig6b(1)) }

// BenchmarkFig6cConnectivity regenerates Fig. 6(c): cost vs average node
// degree (2–14).
func BenchmarkFig6cConnectivity(b *testing.B) { benchExperiment(b, sim.Fig6c(1)) }

// BenchmarkFig6dDeployRatio regenerates Fig. 6(d): cost vs VNF deploying
// ratio (10%–70%).
func BenchmarkFig6dDeployRatio(b *testing.B) { benchExperiment(b, sim.Fig6d(1)) }

// BenchmarkFig6ePriceRatio regenerates Fig. 6(e): cost vs link/VNF price
// ratio (1%–50%).
func BenchmarkFig6ePriceRatio(b *testing.B) { benchExperiment(b, sim.Fig6e(1)) }

// BenchmarkFig6fPriceFluctuation regenerates Fig. 6(f): cost vs VNF price
// fluctuation ratio (5%–50%).
func BenchmarkFig6fPriceFluctuation(b *testing.B) { benchExperiment(b, sim.Fig6f(1)) }

// BenchmarkRuntimeBBEvsMBBE regenerates the §4.5 complexity comparison.
func BenchmarkRuntimeBBEvsMBBE(b *testing.B) { benchExperiment(b, sim.Runtime(1)) }

// BenchmarkGapVsExact regenerates the optimality-gap table (E8).
func BenchmarkGapVsExact(b *testing.B) { benchExperiment(b, sim.Gap(1)) }

// BenchmarkDelayHybridVsSequential regenerates the Fig. 1 motivation
// table (E9).
func BenchmarkDelayHybridVsSequential(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunDelay([]int{3, 5, 7, 9}, 1, int64(i)+1, latency.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// paperInstance draws one Table 2 base instance (500 nodes, SFC size 5).
func paperInstance(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultNetConfig()
	net, err := GenerateNetwork(cfg, rng)
	if err != nil {
		panic(err)
	}
	s, err := GenerateSFC(SFCConfig{Size: 5, LayerWidth: 3, VNFKinds: cfg.VNFKinds}, rng)
	if err != nil {
		panic(err)
	}
	return &Problem{Net: net, SFC: s, Src: 0, Dst: 250, Rate: 1, Size: 1}
}

func benchEmbed(b *testing.B, embed func(*Problem) (*Result, error)) {
	b.Helper()
	base := paperInstance(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := *base
		p.Ledger = nil
		if _, err := embed(&p); err != nil {
			b.Fatal(err)
		}
	}
}

// Single-embedding micro-benchmarks on the Table 2 base instance.
func BenchmarkEmbedMBBE(b *testing.B) { benchEmbed(b, EmbedMBBE) }
func BenchmarkEmbedBBE(b *testing.B)  { benchEmbed(b, EmbedBBE) }
func BenchmarkEmbedMINV(b *testing.B) { benchEmbed(b, EmbedMINV) }
func BenchmarkEmbedRANV(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	benchEmbed(b, func(p *Problem) (*Result, error) { return EmbedRANV(p, rng) })
}

// BenchmarkEmbedExact25 measures the exact solver on a 25-node instance.
func BenchmarkEmbedExact25(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultNetConfig()
	cfg.Nodes = 25
	cfg.Connectivity = 4
	net, err := GenerateNetwork(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := GenerateSFC(SFCConfig{Size: 4, LayerWidth: 3, VNFKinds: cfg.VNFKinds}, rng)
	if err != nil {
		b.Fatal(err)
	}
	base := &Problem{Net: net, SFC: s, Src: 0, Dst: 20, Rate: 1, Size: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := *base
		p.Ledger = nil
		if _, err := exact.Embed(&p, exact.Limits{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEmbedILP8 measures the §3.3 integer program on an 8-node
// instance (the ipgap experiment's scale).
func BenchmarkEmbedILP8(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	cfg := DefaultNetConfig()
	cfg.Nodes = 8
	cfg.Connectivity = 3
	cfg.VNFKinds = 4
	net, err := GenerateNetwork(cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	s, err := GenerateSFC(SFCConfig{Size: 3, LayerWidth: 2, VNFKinds: 4}, rng)
	if err != nil {
		b.Fatal(err)
	}
	base := &Problem{Net: net, SFC: s, Src: 0, Dst: 7, Rate: 1, Size: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := *base
		p.Ledger = nil
		if _, err := EmbedILP(&p, ILPOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablations of MBBE's three strategies (§4.5), for the design choices
// DESIGN.md calls out: the forward-search cap Xmax (strategy 1), the
// mini-path instantiation (strategy 2) and the X_d-tree width (strategy 3).
func benchOptions(b *testing.B, opts Options) {
	b.Helper()
	base := paperInstance(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := *base
		p.Ledger = nil
		if _, err := Embed(&p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationXd(b *testing.B) {
	for _, xd := range []int{1, 2, 4, 8, 16} {
		opts := MBBEOptions()
		opts.Xd = xd
		b.Run(benchName("Xd", xd), func(b *testing.B) { benchOptions(b, opts) })
	}
}

func BenchmarkAblationXmax(b *testing.B) {
	for _, xmax := range []int{30, 60, 120, 240, 0} {
		opts := MBBEOptions()
		opts.Xmax = xmax
		b.Run(benchName("Xmax", xmax), func(b *testing.B) { benchOptions(b, opts) })
	}
}

func BenchmarkAblationMiniPath(b *testing.B) {
	withTree := MBBEOptions()
	withTree.MiniPath = false
	withTree.MaxPathsPerMeta = 2
	b.Run("MiniPathOn", func(b *testing.B) { benchOptions(b, MBBEOptions()) })
	b.Run("MiniPathOff", func(b *testing.B) { benchOptions(b, withTree) })
}

func benchName(prefix string, v int) string {
	if v == 0 {
		return prefix + "Unlimited"
	}
	return prefix + strconv.Itoa(v)
}

// BenchmarkCore pieces: cost evaluation and validation on a solved
// instance — these run on every candidate the search considers.
func BenchmarkComputeCost(b *testing.B) {
	p := paperInstance(5)
	res, err := EmbedMBBE(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ComputeCost(p, res.Solution); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValidate(b *testing.B) {
	p := paperInstance(6)
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
