package main

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfcgen"
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

// TestCounterValue: a snapshot's Series finds a label-free counter and tells
// an absent family from a present one, and stageBuckets, the stage table's
// read, finds no stage the scrape lacks.
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

// testClient serves a three-node line — one f1 instance mid-way — through
// a server holding a journal ring of the given size, over httptest.
func testClient(t *testing.T, ring int) *client.Client {
	t.Helper()
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	nw := network.New(g, network.Catalog{N: 1})
	nw.MustAddInstance(1, 1, 10, 2)
	srv, err := server.New(server.Config{Net: nw, JournalSize: ring})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		_ = srv.Close()
	})
	return client.New(hs.URL, hs.Client())
}

// TestRunLoadRejectsNoFlows: a load of no flows, or of a negative number,
// is refused before it starts — not a makeslice panic, not a NaN ratio.
func TestRunLoadRejectsNoFlows(t *testing.T) {
	cl := testClient(t, 0)
	for _, n := range []int{-1, 0} {
		if err := runLoad(cl, loadConfig{n: n}); err == nil || !strings.Contains(err.Error(), "-n") {
			t.Errorf("runLoad with n = %d: %v, want an error naming -n", n, err)
		}
	}
}

// TestRunLoadSelfServe is the one-command demo: a load of a few flows
// against an in-process server on a real socket runs to its report, and the
// server admitted some of them.
func TestRunLoadSelfServe(t *testing.T) {
	srv, addr, stop, err := startSelfServe(50, 10, 1, "off", "text", "", "commit")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer stop()
	cfg := loadConfig{
		n: 8, meanGap: time.Millisecond, rate: 1, seed: 1, concurrency: 4,
		sfcCfg: sfcgen.Config{Size: 5, LayerWidth: 3, VNFKinds: 10},
	}
	if err := runLoad(client.New("http://"+addr, nil), cfg); err != nil {
		t.Fatal(err)
	}
	if n := srv.ActiveFlows(); n == 0 {
		t.Fatal("the server admitted none of the load's flows")
	}
}

// TestJournalReadersCountMissed: a run that outgrows the journal ring says
// by how much it did — in what fetchJournal returns across pages, and in
// the summary — instead of passing the retained tail off as the whole run.
func TestJournalReadersCountMissed(t *testing.T) {
	const ring = 300 // more than one page of 256
	cl := testClient(t, ring)
	ctx := context.Background()
	for i := 0; i < 80; i++ { // 5 events each: 400, a third more than the ring
		info, err := cl.CreateFlow(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}

	events, missed, err := fetchJournal(ctx, cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != ring || missed == 0 || missed+ring != events[ring-1].Seq+1 {
		t.Fatalf("fetched %d events, %d missed, last seq %d; want the %d retained and every earlier one counted",
			len(events), missed, events[len(events)-1].Seq, ring)
	}
	var out strings.Builder
	printJournalSummary(&out, events, missed)
	if !strings.Contains(out.String(), missedNote(missed)) {
		t.Fatalf("summary does not say what was missed:\n%s", out.String())
	}
}
