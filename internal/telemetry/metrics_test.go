package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests", L("alg", "mbbe"))
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %v, want 3", c.Value())
	}
	// Same (name, labels) returns the same instance.
	if r.Counter("requests_total", "", L("alg", "mbbe")) != c {
		t.Fatal("counter identity not stable")
	}
	// A different label set is a different series.
	c2 := r.Counter("requests_total", "", L("alg", "bbe"))
	if c2 == c || c2.Value() != 0 {
		t.Fatal("label sets not isolated")
	}
	g := r.Gauge("inflight", "")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}
}

func TestCounterDecreasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter add did not panic")
		}
	}()
	NewRegistry().Counter("c", "").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("m", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-55.65) > 1e-9 {
		t.Fatalf("sum = %v", h.Sum())
	}
	snap := r.Snapshot()
	buckets := snap.Families[0].Series[0].Buckets
	// Cumulative: <=0.1 holds 0.05 and 0.1; <=1 adds 0.5; <=10 adds 5;
	// +Inf adds 50.
	wantCum := []uint64{2, 3, 4, 5}
	if len(buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(buckets))
	}
	for i, want := range wantCum {
		if buckets[i].Count != want {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, buckets[i].Count, want)
		}
	}
	if !math.IsInf(buckets[3].UpperBound, 1) {
		t.Fatal("last bucket not +Inf")
	}
}

func TestExpBuckets(t *testing.T) {
	bs := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if bs[i] != want[i] {
			t.Fatalf("ExpBuckets = %v", bs)
		}
	}
}

func TestConcurrentUpdatesAreExact(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("n", "").Inc()
				r.Histogram("h", "", []float64{0.5}).Observe(0.25)
				r.Gauge("g", "").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n", "").Value(); got != workers*perWorker {
		t.Fatalf("counter = %v, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h", "", []float64{0.5}).Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %v", got)
	}
	if got := r.Gauge("g", "").Value(); got != workers*perWorker {
		t.Fatalf("gauge = %v", got)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("dagsfc_embed_attempts_total", "Attempts.", L("alg", "mbbe")).Add(7)
	r.Histogram("dagsfc_embed_latency_seconds", "Latency.", []float64{0.1, 1}, L("alg", "mbbe")).Observe(0.05)
	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dagsfc_embed_attempts_total counter",
		`dagsfc_embed_attempts_total{alg="mbbe"} 7`,
		"# TYPE dagsfc_embed_latency_seconds histogram",
		`dagsfc_embed_latency_seconds_bucket{alg="mbbe",le="0.1"} 1`,
		`dagsfc_embed_latency_seconds_bucket{alg="mbbe",le="+Inf"} 1`,
		`dagsfc_embed_latency_seconds_sum{alg="mbbe"} 0.05`,
		`dagsfc_embed_latency_seconds_count{alg="mbbe"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestJSONExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("c", "help text", L("k", "v")).Inc()
	var b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded.Families) != 1 || decoded.Families[0].Name != "c" ||
		decoded.Families[0].Series[0].Value != 1 {
		t.Fatalf("JSON roundtrip = %+v", decoded)
	}
}

// TestJSONExpositionHistogramInf guards against the +Inf bucket bound
// breaking JSON encoding (encoding/json rejects infinities): the last
// bucket's le must come out as the string "+Inf".
func TestJSONExpositionHistogramInf(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", "", []float64{0.1, 1}).Observe(0.5)
	var b bytes.Buffer
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON with histogram: %v", err)
	}
	if !strings.Contains(b.String(), `"le": "+Inf"`) {
		t.Fatalf("missing +Inf bucket in:\n%s", b.String())
	}
}

func TestMetricsHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits", "").Inc()
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "hits 1") {
		t.Fatalf("/metrics output: %s", b.String())
	}
	// The pprof index must be mounted too.
	resp2, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status = %d", resp2.StatusCode)
	}
}

func TestRecordEmbedSharedNames(t *testing.T) {
	// RecordEmbed writes to the Default registry; every algorithm label
	// must land in the same families.
	for _, alg := range []string{"bbe", "minv", "sa"} {
		RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond, SearchNodes: 3})
	}
	RecordEmbed(EmbedSample{Alg: "bbe", Elapsed: time.Second, Failed: true})
	snap := Default().Snapshot()
	byName := map[string]FamilySnapshot{}
	for _, fam := range snap.Families {
		byName[fam.Name] = fam
	}
	for _, name := range []string{MetricEmbedAttempts, MetricEmbedLatency, MetricSearchNodes} {
		fam, ok := byName[name]
		if !ok {
			t.Fatalf("family %s missing", name)
		}
		algs := map[string]bool{}
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "alg" {
					algs[l.Value] = true
				}
			}
		}
		for _, alg := range []string{"bbe", "minv", "sa"} {
			if !algs[alg] {
				t.Fatalf("family %s missing alg=%s series", name, alg)
			}
		}
	}
	if fam := byName[MetricEmbedFailures]; len(fam.Series) == 0 {
		t.Fatal("failures family missing")
	}
}

// TestRecordEmbedSteadyStateZeroAllocs pins the memoised handles: once an
// algorithm's series are resolved, recording an attempt — failures and
// the worker gauge included — goes through no registry lookup and
// allocates nothing. The lazily registered series must also stay lazy: a
// scrape may not list a failure counter for an algorithm that never failed.
func TestRecordEmbedSteadyStateZeroAllocs(t *testing.T) {
	ok := EmbedSample{Alg: "zero-alloc-alg", Elapsed: time.Millisecond, SearchNodes: 3}
	RecordEmbed(ok)
	for _, fam := range Default().Snapshot().Families {
		if fam.Name != MetricEmbedFailures {
			continue
		}
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "alg" && l.Value == ok.Alg {
					t.Fatal("failure counter registered before the first failure")
				}
			}
		}
	}
	failed := ok
	failed.Failed = true
	RecordEmbed(failed)
	if allocs := testing.AllocsPerRun(100, func() {
		RecordEmbed(ok)
		RecordEmbed(failed)
	}); allocs != 0 {
		t.Fatalf("steady-state RecordEmbed allocates %.1f objects per pair of samples, want 0", allocs)
	}
	if got := Default().Counter(MetricEmbedFailures, "", L("alg", ok.Alg)).Value(); got != 102 {
		t.Fatalf("failure counter = %v after 102 failed samples", got)
	}
}

// renderAlgSeries renders, as a scraper would see them, the named families
// of the Default registry cut down to the series labelled alg; a family
// with no such series is left out.
func renderAlgSeries(t *testing.T, alg string, families ...string) string {
	t.Helper()
	var snap Snapshot
	for _, fam := range Default().Snapshot().Families {
		if !slices.Contains(families, fam.Name) {
			continue
		}
		kept := fam
		kept.Series = nil
		for _, s := range fam.Series {
			for _, l := range s.Labels {
				if l.Key == "alg" && l.Value == alg {
					kept.Series = append(kept.Series, s)
				}
			}
		}
		if len(kept.Series) > 0 {
			snap.Families = append(snap.Families, kept)
		}
	}
	var b strings.Builder
	if err := snap.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestRecordLayeredRunGolden pins the layered-kernel series as a scraper
// sees them — family names, help text, the alg and outcome labels, the
// settled-states buckets — and that the fallback series stays unlisted
// until a fallback happens.
func TestRecordLayeredRunGolden(t *testing.T) {
	const alg = "layered-golden-alg"
	RecordLayeredRun(alg, false, 40)
	RecordLayeredRun(alg, false, 3000)
	render := func() string { return renderAlgSeries(t, alg, MetricLayeredRuns, MetricLayeredSettled) }
	const exactOnly = `# HELP dagsfc_embed_layered_runs_total Runs of single-VNF layers searched by the layered shortest-path kernel, by outcome.
# TYPE dagsfc_embed_layered_runs_total counter
dagsfc_embed_layered_runs_total{alg="layered-golden-alg",outcome="exact"} 2
`
	const settled = `# HELP dagsfc_embed_layered_settled_states States settled per layered shortest-path search.
# TYPE dagsfc_embed_layered_settled_states histogram
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="16"} 0
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="32"} 0
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="64"} 1
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="128"} 1
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="256"} 1
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="512"} 1
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="1024"} 1
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="2048"} 1
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="4096"} 2
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="8192"} 2
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="16384"} 2
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="32768"} 2
dagsfc_embed_layered_settled_states_bucket{alg="layered-golden-alg",le="+Inf"} 2
dagsfc_embed_layered_settled_states_sum{alg="layered-golden-alg"} 3040
dagsfc_embed_layered_settled_states_count{alg="layered-golden-alg"} 2
`
	if got := render(); got != exactOnly+settled {
		t.Fatalf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, exactOnly+settled)
	}
	RecordLayeredRun(alg, true, 7)
	if got := render(); !strings.Contains(got, `dagsfc_embed_layered_runs_total{alg="layered-golden-alg",outcome="fallback"} 1`+"\n") {
		t.Fatalf("fallback series missing after a fallback:\n%s", got)
	}
}

// TestRecordEmbedPathTreeNodesGolden pins the private-tree series as a
// scraper sees it: unlisted while an algorithm's attempts grow no tree of
// their own (served by the shared store, or needing none), then one
// histogram per alg of nodes settled per attempt.
func TestRecordEmbedPathTreeNodesGolden(t *testing.T) {
	const alg = "path-tree-golden-alg"
	render := func() string { return renderAlgSeries(t, alg, MetricPathTreeNodes) }
	RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond})
	if got := render(); got != "" {
		t.Fatalf("an attempt that grew no tree listed the series:\n%s", got)
	}
	RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond, PathTreeNodes: 125})
	RecordEmbed(EmbedSample{Alg: alg, Elapsed: time.Millisecond, PathTreeNodes: 3000})
	const want = `# HELP dagsfc_embed_path_tree_nodes Nodes settled per embedding attempt by the Dijkstra trees it grew on a view of its own.
# TYPE dagsfc_embed_path_tree_nodes histogram
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="16"} 0
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="32"} 0
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="64"} 0
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="128"} 1
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="256"} 1
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="512"} 1
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="1024"} 1
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="2048"} 1
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="4096"} 2
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="8192"} 2
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="16384"} 2
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="32768"} 2
dagsfc_embed_path_tree_nodes_bucket{alg="path-tree-golden-alg",le="+Inf"} 2
dagsfc_embed_path_tree_nodes_sum{alg="path-tree-golden-alg"} 3125
dagsfc_embed_path_tree_nodes_count{alg="path-tree-golden-alg"} 2
`
	if got := render(); got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRequestRecordersGolden pins what a scrape sees of the three
// per-request recorders — family names, help text, route/outcome/stage
// labels, one latency histogram per route — and that an outcome's series
// stays unlisted until it happens.
func TestRequestRecordersGolden(t *testing.T) {
	const route, stage = "golden.route", "golden_stage"
	RecordServerRequest(route, "accepted", 3*time.Millisecond)
	RecordServerRequest(route, "accepted", 5*time.Millisecond)
	RecordServerStage(stage, time.Millisecond)
	render := func() string {
		var snap Snapshot
		for _, fam := range Default().Snapshot().Families {
			kept := fam
			kept.Series = nil
			for _, s := range fam.Series {
				for _, l := range s.Labels {
					if l.Value == route || l.Value == stage {
						// Bucket rows are pinned by the layered-run golden;
						// here the identity of the series is the point.
						s.Buckets = nil
						kept.Series = append(kept.Series, s)
					}
				}
			}
			if len(kept.Series) > 0 {
				snap.Families = append(snap.Families, kept)
			}
		}
		var b strings.Builder
		if err := snap.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	const want = `# HELP dagsfc_server_request_latency_seconds Wall-clock seconds per serving-layer request.
# TYPE dagsfc_server_request_latency_seconds histogram
dagsfc_server_request_latency_seconds_sum{route="golden.route"} 0.008
dagsfc_server_request_latency_seconds_count{route="golden.route"} 2
# HELP dagsfc_server_requests_total Serving-layer requests by route and outcome.
# TYPE dagsfc_server_requests_total counter
dagsfc_server_requests_total{outcome="accepted",route="golden.route"} 2
# HELP dagsfc_server_stage_seconds Serving-pipeline stage durations derived from journal event pairs.
# TYPE dagsfc_server_stage_seconds histogram
dagsfc_server_stage_seconds_sum{stage="golden_stage"} 0.001
dagsfc_server_stage_seconds_count{stage="golden_stage"} 1
`
	if got := render(); got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	RecordServerRequest(route, "conflict", time.Millisecond)
	if got := render(); !strings.Contains(got, `dagsfc_server_requests_total{outcome="conflict",route="golden.route"} 1`+"\n") ||
		!strings.Contains(got, `dagsfc_server_request_latency_seconds_count{route="golden.route"} 3`+"\n") {
		t.Fatalf("a new outcome must add a counter series and share the route's histogram:\n%s", got)
	}

}

// TestPathCacheRetentionExposition pins what a scrape sees of the tree
// stores' retention: an eviction counter that only moves when something was
// dropped, and no retention gauge — the stores live in pooled arenas the
// collector may drop unseen, so no count of what they hold can be true.
func TestPathCacheRetentionExposition(t *testing.T) {
	render := func() string {
		var snap Snapshot
		for _, fam := range Default().Snapshot().Families {
			if strings.HasPrefix(fam.Name, "dagsfc_path_cache_") && fam.Name != MetricPathCacheHits && fam.Name != MetricPathCacheMisses {
				snap.Families = append(snap.Families, fam)
			}
		}
		var b strings.Builder
		if err := snap.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	evictions := func() float64 { return pathCacheEvictions().Value() }
	InitPathCacheMetrics()
	base := evictions()
	RecordPathCacheEvictions(0)
	if got := evictions(); got != base {
		t.Fatalf("a report with nothing evicted moved the eviction counter %v -> %v", base, got)
	}
	RecordPathCacheEvictions(25)
	want := fmt.Sprintf(`# HELP dagsfc_path_cache_evictions_total Kept Dijkstra trees an embed arena dropped: by its size bound, with a displaced view, or for a run without a ledger.
# TYPE dagsfc_path_cache_evictions_total counter
dagsfc_path_cache_evictions_total %v
`, base+25)
	if got := render(); got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
