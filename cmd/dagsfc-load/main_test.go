package main

import (
	"math"
	"strings"
	"testing"

	"dagsfc/internal/telemetry"
)

var inf = math.Inf(1)

// scrape builds a /metrics snapshot holding one stage histogram per
// argument pair, buckets in the given order — the tests shuffle and
// truncate them to prove the table does not depend on array order or on
// the +Inf bucket coming last.
func scrape(stages map[string][]telemetry.BucketCount) telemetry.Snapshot {
	fam := telemetry.FamilySnapshot{Name: "dagsfc_server_stage_seconds", Kind: telemetry.KindHistogram}
	for stage, buckets := range stages {
		fam.Series = append(fam.Series, telemetry.SeriesSnapshot{Labels: []telemetry.Label{telemetry.L("stage", stage)}, Buckets: buckets})
	}
	return telemetry.Snapshot{Families: []telemetry.FamilySnapshot{
		{Name: "dagsfc_path_cache_hits_total", Kind: telemetry.KindCounter, Series: []telemetry.SeriesSnapshot{{Value: 12}}},
		fam,
	}}
}

// hist builds cumulative buckets from (upper bound, count) pairs.
func hist(pairs ...float64) []telemetry.BucketCount {
	var out []telemetry.BucketCount
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, telemetry.BucketCount{UpperBound: pairs[i], Count: uint64(pairs[i+1])})
	}
	return out
}

// embedBuckets is hist through a snapshot and back out of stageBuckets.
func embedBuckets(t *testing.T, pairs ...float64) []telemetry.BucketCount {
	t.Helper()
	buckets := hist(pairs...)
	got, ok := stageBuckets(scrape(map[string][]telemetry.BucketCount{"embed": buckets}), "embed")
	if !ok || len(got) != len(buckets) {
		t.Fatalf("found %d buckets (ok=%v), want %d", len(got), ok, len(buckets))
	}
	return got
}

func TestBucketQuantileShuffledExposition(t *testing.T) {
	// The same histogram in scrape order and shuffled: 100 observations,
	// p50 ≤ 0.01, p95 ≤ 0.1, p99 ≤ +Inf.
	ordered := []float64{0.001, 10, 0.01, 60, 0.1, 95, inf, 100}
	shuffled := []float64{0.1, 95, inf, 100, 0.001, 10, 0.01, 60}
	for _, in := range [][]float64{ordered, shuffled} {
		buckets := embedBuckets(t, in...)
		for i := 1; i < len(buckets); i++ {
			if buckets[i].UpperBound < buckets[i-1].UpperBound {
				t.Fatalf("buckets not sorted by le: %v", buckets)
			}
		}
		if got := bucketQuantile(buckets, 0.50); got != 0.01 {
			t.Fatalf("p50 = %v, want 0.01", got)
		}
		if got := bucketQuantile(buckets, 0.95); got != 0.1 {
			t.Fatalf("p95 = %v, want 0.1", got)
		}
		if got := bucketQuantile(buckets, 0.99); !math.IsInf(got, 1) {
			t.Fatalf("p99 = %v, want +Inf", got)
		}
	}
}

func TestBucketQuantileTruncatedExposition(t *testing.T) {
	// A scrape cut off before the +Inf bucket: there is no observation
	// total to rank against, so every quantile is NaN — previously the
	// last-seen bucket's count was silently trusted as the total.
	buckets := embedBuckets(t, 0.001, 10, 0.01, 60, 0.1, 95)
	if got := bucketQuantile(buckets, 0.50); !math.IsNaN(got) {
		t.Fatalf("p50 on truncated histogram = %v, want NaN", got)
	}
	if histogramValid(buckets) {
		t.Fatal("truncated histogram reported valid")
	}
}

func TestBucketQuantileNonMonotonicCounts(t *testing.T) {
	// Cumulative counts that decrease (merged series, relabelling damage):
	// refuse to estimate rather than fabricate a latency.
	buckets := embedBuckets(t, 0.001, 50, 0.01, 30, inf, 100)
	if got := bucketQuantile(buckets, 0.50); !math.IsNaN(got) {
		t.Fatalf("p50 on non-monotonic histogram = %v, want NaN", got)
	}
	if histogramValid(buckets) {
		t.Fatal("non-monotonic histogram reported valid")
	}
}

func TestBucketQuantileEmptyAndZero(t *testing.T) {
	if got := bucketQuantile(nil, 0.5); !math.IsNaN(got) {
		t.Fatalf("quantile of no buckets = %v, want NaN", got)
	}
	empty := embedBuckets(t, 0.001, 0, inf, 0)
	if got := bucketQuantile(empty, 0.5); !math.IsNaN(got) {
		t.Fatalf("quantile of zero observations = %v, want NaN", got)
	}
	if !histogramValid(empty) {
		t.Fatal("an all-zero histogram is structurally valid; it just has nothing to report")
	}
}

func TestPrintStageTableWarnsOnMalformed(t *testing.T) {
	snap := scrape(map[string][]telemetry.BucketCount{
		"embed":       hist(0.001, 10, inf, 100),
		"commit_wait": hist(0.001, 50, 0.01, 30, inf, 100),
	})
	var out strings.Builder
	printStageTable(&out, snap)
	got := out.String()
	if !strings.Contains(got, "embed") || !strings.Contains(got, "p99") {
		t.Fatalf("valid stage missing from table:\n%s", got)
	}
	if !strings.Contains(got, `warning: stage "commit_wait"`) {
		t.Fatalf("malformed stage did not produce a warning:\n%s", got)
	}
	out.Reset()
	if printStageTable(&out, telemetry.Snapshot{}); out.Len() != 0 {
		t.Fatalf("no stage histograms at all (an old server) printed:\n%s", out.String())
	}
}

// TestCounterValue: the smoke check reads a label-free counter off the
// snapshot, and tells one that is absent from one that reads zero.
func TestCounterValue(t *testing.T) {
	snap := scrape(nil)
	if got, ok := snap.Series("dagsfc_path_cache_hits_total"); !ok || got.Value != 12 {
		t.Fatalf("counter = %v (present: %v), want 12", got.Value, ok)
	}
	if _, ok := snap.Series("missing_total"); ok {
		t.Fatal("an absent counter was found")
	}
	if _, ok := stageBuckets(snap, "embed"); ok {
		t.Fatal("a stage with no series was found")
	}
}
