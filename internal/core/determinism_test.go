package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dagsfc/internal/telemetry"
)

// concurrentCallers is how many goroutines embed one shared Problem at once
// in the tests below: the callers' workers, the only parallelism an embed
// ever sees now that each run is a single-goroutine computation.
const concurrentCallers = 4

// TestConcurrentCallersDeterminism is the concurrency contract: concurrent
// Embed calls sharing one Problem are race-free (run under -race) and each
// returns exactly what a lone call returns — the same Solution,
// CostBreakdown and Stats, and (checked separately below) the same trace
// outline. Failures must match too: an infeasible instance is
// infeasible for every caller, with the same error.
func TestConcurrentCallersDeterminism(t *testing.T) {
	configs := []struct {
		name string
		opts Options
	}{
		{"bbe", BBEOptions()},
		{"mbbe", MBBEOptions()},
		{"mbbe+delay", func() Options {
			o := MBBEOptions()
			o.MaxDelay = 4.0
			return o
		}()},
	}
	for _, cfg := range configs {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", cfg.name, seed), func(t *testing.T) {
				p := randomProblem(rand.New(rand.NewSource(seed)), 60, 6, 4)
				seqRes, seqErr := Embed(p, cfg.opts)

				var results [concurrentCallers]*Result
				var errs [concurrentCallers]error
				var wg sync.WaitGroup
				for w := range results {
					wg.Add(1)
					go func() {
						defer wg.Done()
						results[w], errs[w] = Embed(p, cfg.opts)
					}()
				}
				wg.Wait()
				for w, parRes := range results {
					parErr := errs[w]
					if (seqErr == nil) != (parErr == nil) {
						t.Fatalf("caller %d: err %v, lone err %v", w, parErr, seqErr)
					}
					if seqErr != nil {
						if parErr.Error() != seqErr.Error() {
							t.Fatalf("caller %d: err %q, lone err %q", w, parErr, seqErr)
						}
						continue
					}
					if !reflect.DeepEqual(parRes.Solution, seqRes.Solution) {
						t.Errorf("caller %d: Solution differs from the lone call's", w)
					}
					if !reflect.DeepEqual(parRes.Cost, seqRes.Cost) {
						t.Errorf("caller %d: CostBreakdown differs: %+v vs %+v", w, parRes.Cost, seqRes.Cost)
					}
					if parRes.Stats != seqRes.Stats {
						t.Errorf("caller %d: Stats differ: %+v vs %+v", w, parRes.Stats, seqRes.Stats)
					}
				}
			})
		}
	}
}

// TestConcurrentCallersObserverDeterminism asserts every one of several
// concurrent embeds writes into its own span the trace outline of a lone
// call.
func TestConcurrentCallersObserverDeterminism(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(3)), 60, 6, 4)

	trace := func() (string, error) {
		_, tr, err := embedTraced(p, MBBEOptions())
		return outline(t, tr), err
	}
	seq, err := trace()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(seq, "\n") < 4 {
		t.Fatalf("trace too small:\n%s", seq)
	}
	var traces [concurrentCallers]string
	var errs [concurrentCallers]error
	var wg sync.WaitGroup
	for w := range traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[w], errs[w] = trace()
		}()
	}
	wg.Wait()
	for w, par := range traces {
		if errs[w] != nil {
			t.Fatalf("caller %d: %v", w, errs[w])
		}
		if par != seq {
			t.Fatalf("caller %d: trace outline differs:\n%s\nlone call:\n%s", w, par, seq)
		}
	}
}

// TestEmbedDoesNotMutateProblem pins the ledger side-effect fix: Embed on
// a Problem without a ledger must not install one — neither on success
// nor on a validation failure.
func TestEmbedDoesNotMutateProblem(t *testing.T) {
	p := lineFixture()
	if p.Ledger != nil {
		t.Fatal("fixture unexpectedly has a ledger")
	}
	if _, err := EmbedMBBE(p); err != nil {
		t.Fatal(err)
	}
	if p.Ledger != nil {
		t.Error("Embed installed a ledger on the caller's Problem")
	}

	bad := lineFixture()
	bad.Rate = 0
	if _, err := EmbedMBBE(bad); err == nil {
		t.Fatal("invalid problem accepted")
	}
	if bad.Ledger != nil {
		t.Error("failed Embed installed a ledger on the caller's Problem")
	}
}

// TestValidateDoesNotInstallLedger pins the same contract for the
// solution validator.
func TestValidateDoesNotInstallLedger(t *testing.T) {
	p := lineFixture()
	if err := Validate(p, lineSolution()); err != nil {
		t.Fatal(err)
	}
	if p.Ledger != nil {
		t.Error("Validate installed a ledger on the caller's Problem")
	}
}

// TestEmbedInvalidProblemCountsAsFailure pins the telemetry fix: an
// instance rejected by Validate is still a failed embedding attempt in
// the attempts/failures metric families.
func TestEmbedInvalidProblemCountsAsFailure(t *testing.T) {
	r := telemetry.Default()
	label := telemetry.L("alg", "invalid-metric-test")
	attempts := r.Counter(telemetry.MetricEmbedAttempts, "Embedding attempts by algorithm.", label)
	failures := r.Counter(telemetry.MetricEmbedFailures, "Embedding attempts that found no feasible solution.", label)
	attemptsBefore, failuresBefore := attempts.Value(), failures.Value()

	p := lineFixture()
	p.Rate = 0 // invalid
	opts := MBBEOptions()
	opts.Label = "invalid-metric-test"
	if _, err := Embed(p, opts); err == nil {
		t.Fatal("invalid problem accepted")
	}
	if got := attempts.Value() - attemptsBefore; got != 1 {
		t.Errorf("attempts delta = %v, want 1", got)
	}
	if got := failures.Value() - failuresBefore; got != 1 {
		t.Errorf("failures delta = %v, want 1", got)
	}
}

// TestTrimExtensionsDoesNotMutateInput pins the pruning fix: trimming
// with delay diversity must not write into the caller's backing array,
// and the returned slice stays cost-sorted with the fastest survivor
// present.
func TestTrimExtensionsDoesNotMutateInput(t *testing.T) {
	e := &embedder{opts: Options{MaxDelay: 100}}
	exts := []*extension{
		{localCost: 1, delay: 9},
		{localCost: 2, delay: 8},
		{localCost: 3, delay: 7},
		{localCost: 4, delay: 6},
		{localCost: 5, delay: 1}, // fastest, beyond the cut
	}
	orig := append([]*extension(nil), exts...)
	kept := e.trimExtensions(exts, 3)
	for i := range orig {
		if exts[i] != orig[i] {
			t.Fatalf("input slice mutated at %d", i)
		}
	}
	if len(kept) != 3 {
		t.Fatalf("kept %d extensions, want 3", len(kept))
	}
	for i := 1; i < len(kept); i++ {
		if kept[i].localCost < kept[i-1].localCost {
			t.Fatalf("kept slice not cost-sorted: %v after %v", kept[i].localCost, kept[i-1].localCost)
		}
	}
	found := false
	for _, ext := range kept {
		if ext == orig[4] {
			found = true
		}
	}
	if !found {
		t.Fatal("fastest extension did not survive the trim")
	}
}

// TestTruncateDoesNotMutateInput is the sub-solution counterpart.
func TestTruncateDoesNotMutateInput(t *testing.T) {
	e := &embedder{opts: Options{MaxDelay: 100}}
	children := []*subSolution{
		{cum: 1, cumDelay: 9},
		{cum: 2, cumDelay: 8},
		{cum: 3, cumDelay: 7},
		{cum: 4, cumDelay: 1}, // fastest, beyond the cut
	}
	orig := append([]*subSolution(nil), children...)
	kept := e.truncateWithDelayDiversity(children, 2)
	for i := range orig {
		if children[i] != orig[i] {
			t.Fatalf("input slice mutated at %d", i)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("kept %d children, want 2", len(kept))
	}
	if kept[0] != orig[0] || kept[1] != orig[3] {
		t.Fatalf("want cheapest + fastest kept in cost order, got cum=%v,%v", kept[0].cum, kept[1].cum)
	}
}
