package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
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

// TestProtectionContract: the check wireTarget makes at every fault it
// applies. A flow active with an active backup when a link fault lands
// must still be active after it; node-down may take both placements (a
// link-disjoint pair may share a node), and an unprotected flow may
// strand.
func TestProtectionContract(t *testing.T) {
	flow := func(id int64, state string, backup bool) []server.FlowInfo {
		return []server.FlowInfo{{ID: id, State: state, BackupActive: backup}}
	}
	linkDown := network.Fault{Kind: network.FaultLinkDown, Link: 66}
	nodeDown := network.Fault{Kind: network.FaultNodeDown, Node: 3}
	cases := []struct {
		name          string
		fault         network.Fault
		before, after []server.FlowInfo
		checked       int
		violations    int
	}{
		{"covered flow fails over", linkDown, flow(3, server.FlowStateActive, true), flow(3, server.FlowStateActive, false), 1, 0},
		{"covered flow repairing after link-down", linkDown, flow(3, server.FlowStateActive, true), flow(3, server.FlowStateRepairing, false), 1, 1},
		{"covered flow repairing after node-down", nodeDown, flow(3, server.FlowStateActive, true), flow(3, server.FlowStateRepairing, false), 1, 0},
		{"uncovered flow strands", linkDown, flow(4, server.FlowStateActive, false), flow(4, server.FlowStateRepairing, false), 0, 0},
		{"flow mid-repair is not covered", linkDown, flow(4, server.FlowStateRepairing, false), flow(4, server.FlowStateRepairing, false), 0, 0},
		{"covered flow released meanwhile", linkDown, flow(3, server.FlowStateActive, true), nil, 0, 0},
	}
	for _, tc := range cases {
		var target wireTarget
		err := target.check(tc.fault, tc.before, tc.after)
		if (err != nil) != (tc.violations > 0) || target.violations != tc.violations || target.checked != tc.checked {
			t.Errorf("%s: err %v, %d violations, %d checked; want %d and %d",
				tc.name, err, target.violations, target.checked, tc.violations, tc.checked)
		}
	}
}

// TestLoadSchedule: -faults takes a count or a file, and a file that does
// not parse is an error, not an empty schedule.
func TestLoadSchedule(t *testing.T) {
	sched, err := loadSchedule("6", 1, 50, 100)
	if err != nil || len(sched) != 6 {
		t.Fatalf("count: %d incidents, %v; want 6", len(sched), err)
	}
	again, _ := loadSchedule("6", 1, 50, 100)
	if sched.Format() != again.Format() {
		t.Fatal("one seed drew two schedules")
	}

	dir := t.TempDir()
	good := filepath.Join(dir, "good.txt")
	if err := os.WriteFile(good, []byte("# two incidents\n0.5 2 link-down 3\n1 1 node-down 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sched, err = loadSchedule(good, 1, 50, 100)
	if err != nil || len(sched) != 2 || sched[1].Fault.Kind != network.FaultNodeDown {
		t.Fatalf("file: %+v, %v; want its two incidents", sched, err)
	}

	bad := filepath.Join(dir, "bad.txt")
	if err := os.WriteFile(bad, []byte("0.5 2 link-down 3\n1 1 meteor-strike 7\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if sched, err := loadSchedule(bad, 1, 50, 100); err == nil {
		t.Fatalf("malformed file read as %d incidents, want an error", len(sched))
	}
	if _, err := loadSchedule(filepath.Join(dir, "absent.txt"), 1, 50, 100); err == nil {
		t.Fatal("a missing file read without error")
	}
}

// TestJournalReadersCountMissed: a run that outgrows the journal ring says
// by how much it did — in what fetchJournal returns across pages, and in
// the summary, the post-mortem and the dump — instead of passing the
// retained tail off as the whole run.
func TestJournalReadersCountMissed(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	nw := network.New(g, network.Catalog{N: 1})
	nw.MustAddInstance(1, 1, 10, 2)
	const ring = 300 // more than one page of 256
	srv, err := server.New(server.Config{Net: nw, JournalSize: ring})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	cl := client.New(hs.URL, hs.Client())
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

	note := missedNote(missed)
	var out strings.Builder
	printJournalSummary(&out, events, missed)
	if !strings.Contains(out.String(), note) {
		t.Fatalf("summary does not say what was missed:\n%s", out.String())
	}
	out.Reset()
	// Flow 7 is admitted, a fault lands and strands it, and a later fault is
	// restored after its last event: the post-mortem shows the flow and the
	// fault inside its stretch of the journal, not the one outside.
	last := events[ring-1].Seq
	stranded := append(events,
		journal.Event{Seq: last + 1, Type: journal.TypeEnqueue, Flow: 7},
		journal.Event{Seq: last + 2, Type: evFaultApply, Detail: "link-down 0"},
		journal.Event{Seq: last + 3, Type: evStrand, Flow: 7, Detail: "link-down 0"},
		journal.Event{Seq: last + 4, Type: evFaultRestore, Detail: "link-down 1"})
	postMortem(&out, stranded, missed)
	if got := out.String(); !strings.Contains(got, note) || !strings.Contains(got, "flow 7 seq") ||
		!strings.Contains(got, "fault_apply detail=link-down 0") || strings.Contains(got, "link-down 1") {
		t.Fatalf("post-mortem does not say what was missed, skips the stranded flow or its fault, or shows a fault outside its window:\n%s", got)
	}
	dump := filepath.Join(t.TempDir(), "journal.json")
	if err := writeJournal(dump, events, missed); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var page server.EventsPage
	if err := json.Unmarshal(b, &page); err != nil || page.Missed != missed || len(page.Events) != ring {
		t.Fatalf("dump read back as %d events, %d missed (%v); want %d and %d", len(page.Events), page.Missed, err, ring, missed)
	}
}
