package core

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"testing"

	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
)

// solutionFingerprint renders a Result into a short stable string: the
// total cost at full precision plus an FNV hash of the complete solution
// structure (assignments, merger nodes, every real-path) and the search
// statistics. Two results fingerprint equal iff they are the same
// embedding at the same price found by the same amount of search.
func solutionFingerprint(res *Result) string {
	h := fnv.New64a()
	st := res.Stats
	// The seven per-layer-search counters are hashed in the shape the
	// goldens were recorded in (Stats printed with %v when it had only
	// these fields), so a run the layered kernel never touches keeps its
	// fingerprint byte for byte; the kernel's own counters join only when
	// it ran.
	fmt.Fprintf(h, "%v|%v", res.Solution, struct{ fwd, bwd, nodes, exts, subs, capRej, delayRej int }{
		st.ForwardSearches, st.BackwardSearches, st.TreeNodes, st.Extensions,
		st.SubSolutions, st.CapacityRejections, st.DelayRejections,
	})
	if st.LayeredRuns != 0 {
		fmt.Fprintf(h, "|layered=%d/%d", st.LayeredRuns, st.LayeredFallbacks)
	}
	return fmt.Sprintf("cost=%.12g sol=%016x", res.Cost.Total(), h.Sum64())
}

// rewriteGolden pins the exact embeddings produced before the CSR +
// pooled-scratch hot-path rewrite (PR 4). The rewrite is a pure
// performance change: every algorithm configuration must keep producing
// bit-identical solutions, costs and search statistics on these fixed
// instances, for every worker-pool size (the three MBBE entries, whose
// parallel layers now build fewer candidates, were re-pinned for Extensions
// alone). Regenerate with
// DAGSFC_UPDATE_GOLDEN=1 go test -run TestRewriteGolden ./internal/core
// only when an intentional algorithmic change lands.
var rewriteGolden = map[string]string{
	"bbe/seed=1":              "cost=560.109240549 sol=59a708e255fdb041",
	"bbe/seed=2":              "cost=478.517555796 sol=ccb9a65e8e32c86a",
	"bbe/seed=3":              "cost=463.067155197 sol=9f72b1b803003d53",
	"mbbe/seed=1":             "cost=513.289695969 sol=2259d4c3c5ddd060",
	"mbbe/seed=2":             "cost=478.517555796 sol=c7ec634742fe142a",
	"mbbe/seed=3":             "cost=461.643145726 sol=9f1510ad0613546a",
	"mbbe+delay/seed=1":       "cost=513.289695969 sol=529d92d2142f0af9",
	"mbbe+delay/seed=2":       "cost=478.517555796 sol=7cc471362782507f",
	"mbbe+delay/seed=3":       "cost=461.643145726 sol=f5dd53b2deb2d855",
	"mbbe+delay-tight/seed=1": "cost=534.571091048 sol=d87bde6590815e96",
	"mbbe+delay-tight/seed=2": "err=core: no feasible embedding found: no leaf reaches the destination feasibly",
	"mbbe+delay-tight/seed=3": "cost=461.643145726 sol=f5dd53b2deb2d855",
}

// rewriteGoldenCostBound holds, for every MBBE fingerprint re-pinned when
// the parallel-layer search got its horizon and its sense of direction
// (PR 26), the cost the search found without them (a refusal then has no
// entry). A wider candidate set ranked by the whole way to go may find the
// same embedding but never a costlier one on these instances.
var rewriteGoldenCostBound = map[string]float64{
	"mbbe/seed=1":             558.168943884,
	"mbbe/seed=2":             478.517555796,
	"mbbe/seed=3":             461.643145726,
	"mbbe+delay/seed=1":       560.109240549,
	"mbbe+delay/seed=2":       478.517555796,
	"mbbe+delay/seed=3":       463.067155197,
	"mbbe+delay-tight/seed=3": 463.067155197,
}

// namedOptions is one row of a test's configuration table.
type namedOptions struct {
	name string
	opts Options
}

// goldenConfigs are the configurations TestRewriteGolden pins.
func goldenConfigs() []namedOptions {
	return []namedOptions{
		{"bbe", BBEOptions()},
		{"mbbe", MBBEOptions()},
		{"mbbe+delay", func() Options {
			o := MBBEOptions()
			o.MaxDelay = 5.0
			return o
		}()},
		{"mbbe+delay-tight", func() Options {
			o := MBBEOptions()
			o.MaxDelay = 2.2
			return o
		}()},
	}
}

func TestRewriteGolden(t *testing.T) {
	update := os.Getenv("DAGSFC_UPDATE_GOLDEN") != ""
	for _, cfg := range goldenConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			key := fmt.Sprintf("%s/seed=%d", cfg.name, seed)
			t.Run(key, func(t *testing.T) {
				p := randomProblem(rand.New(rand.NewSource(seed)), 60, 6, 4)
				res, err := Embed(p, cfg.opts)
				var got string
				if err != nil {
					got = "err=" + err.Error()
				} else {
					got = solutionFingerprint(res)
				}
				if update {
					fmt.Printf("\t%q: %q,\n", key, got)
					return
				}
				want, ok := rewriteGolden[key]
				if !ok {
					t.Fatalf("no golden recorded for %s (got %s)", key, got)
				}
				if got != want {
					t.Errorf("embedding changed: got %s, want %s", got, want)
				}
				// The bounds are the old costs as printed (12 significant
				// digits); the slack covers that rounding only.
				if bound, ok := rewriteGoldenCostBound[key]; ok && err == nil && res.Cost.Total() > bound*(1+1e-11) {
					t.Errorf("cost %.12g is above %.12g, what the search found before", res.Cost.Total(), bound)
				}
			})
		}
	}
}

// screenFingerprint is solutionFingerprint for the parallel-layer pins: the
// solution, the cost's bits and the search's size — searches, tree nodes,
// extensions, sub-solutions and the layered kernel's runs — but not
// CapacityRejections, which counts only the candidates a parent screened.
func screenFingerprint(res *Result) string {
	h := fnv.New64a()
	st := res.Stats
	fmt.Fprintf(h, "%v|%d/%d/%d/%d/%d|%d/%d", res.Solution, st.ForwardSearches, st.BackwardSearches,
		st.TreeNodes, st.Extensions, st.SubSolutions, st.LayeredRuns, st.LayeredFallbacks)
	return fmt.Sprintf("cost=%016x sol=%016x", math.Float64bits(res.Cost.Total()), h.Sum64())
}

// screenGolden pins MBBE on hybrid DAG-SFCs at Table 2 scale (500 nodes, 10
// kinds): layer widths 2–4, sizes 4–8, so parallel layers meet single-VNF
// remainders, at rate 250 of every capacity's 1000, so a chain's own reuse
// already binds. The loaded entries embed on a ledger 60 such flows have
// filled, where some parents keep fewer than X_d feasible children. Re-pinned
// for the search counts alone each time the parallel-layer search grew lazier
// (with the counts zeroed every pin read the same before and after). A pin
// that moves is a behaviour change, not a re-pin.
var screenGolden = map[string]string{
	"w=2/n=4/seed=50":        "cost=40822ddf7b358a55 sol=e66f589c44b4bf66",
	"w=2/n=5/seed=51":        "cost=40842ba21428be7f sol=dd7cb21296f0a1f1",
	"w=2/n=7/seed=52":        "cost=408bd85f94a040f8 sol=a734900af2818895",
	"w=3/n=5/seed=53":        "cost=4084d696308c230f sol=8cad704b96a3c028",
	"w=3/n=6/seed=54":        "cost=4089a3ad21084632 sol=529d4462e04df7a9",
	"w=3/n=8/seed=55":        "cost=409004477750736f sol=4addb156be83c688",
	"w=4/n=5/seed=56":        "cost=408485f1a02bbd98 sol=5fc8a4d21b6e185a",
	"w=4/n=8/seed=57":        "cost=40900dfa3e5185c7 sol=a223e4dce430e9fc",
	"w=2/n=8/seed=65/loaded": "cost=408fa15edc06633f sol=3b064c8a45c10f9c",
	"w=3/n=8/seed=69/loaded": "cost=40906fddb3dd9755 sol=7ab6e4f1d4c0ba43",
	"w=2/n=6/seed=70/loaded": "cost=4087ff1a473cbecd sol=5380e3c7891f679e",
	"w=4/n=6/seed=72/loaded": "cost=40882a9c97a9fb8a sol=ece59c7a3354756e",
}

// screenCases are screenGolden's instances: width, size, the seed that
// draws the flow and whether the ledger is loaded.
var screenCases = []struct {
	width, size int
	seed        int64
	loaded      bool
}{
	{2, 4, 50, false}, {2, 5, 51, false}, {2, 7, 52, false}, {3, 5, 53, false},
	{3, 6, 54, false}, {3, 8, 55, false}, {4, 5, 56, false}, {4, 8, 57, false},
	{2, 8, 65, true}, {3, 8, 69, true}, {2, 6, 70, true}, {4, 6, 72, true},
}

// screenFlow draws one flow of the given shape on net between two of its
// first eight nodes.
func screenFlow(rng *rand.Rand, net *network.Network, width, size int) *Problem {
	s, src, dst := sfcgen.MustFlow(sfcgen.Config{Size: size, LayerWidth: width, VNFKinds: 10}, 8, rng)
	return &Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 250, Size: 1}
}

// loadedLedger commits the MBBE placements of 60 flows drawn by screenFlow,
// skipping those refused.
func loadedLedger(t testing.TB, net *network.Network, rng *rand.Rand) *network.Ledger {
	t.Helper()
	ledger := network.NewLedger(net)
	for i := 0; i < 60; i++ {
		p := screenFlow(rng, net, 2+i%3, 4+i%5)
		p.Ledger = ledger
		if res, err := EmbedMBBE(p); err == nil {
			if _, err := Commit(p, res.Solution); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ledger
}

func TestScreenGolden(t *testing.T) {
	update := os.Getenv("DAGSFC_UPDATE_GOLDEN") != ""
	net := netgen.MustGenerate(netgen.Default(), rand.New(rand.NewSource(48)))
	ledger := loadedLedger(t, net, rand.New(rand.NewSource(49)))
	for _, c := range screenCases {
		key := fmt.Sprintf("w=%d/n=%d/seed=%d", c.width, c.size, c.seed)
		p := screenFlow(rand.New(rand.NewSource(c.seed)), net, c.width, c.size)
		if c.loaded {
			key += "/loaded"
			p.Ledger = ledger
		}
		res, err := EmbedMBBE(p)
		got := "err=" + fmt.Sprint(err)
		if err == nil {
			got = screenFingerprint(res)
		}
		if update {
			fmt.Printf("\t%q: %q,\n", key, got)
			continue
		}
		if want := screenGolden[key]; got != want {
			t.Errorf("%s: got %s, want %s", key, got, want)
		}
		if c.loaded {
			// The lazy screens read few candidates; the eager reference, which
			// screens them all, shows that capacity binds on the instance.
			ref, err := embedReference(p, MBBEOptions(), func(e *embedder) { e.eager = true })
			if err != nil || ref.Stats.CapacityRejections == 0 {
				t.Errorf("%s: capacity does not bind on the loaded ledger (err %v)", key, err)
			}
		}
	}
}
