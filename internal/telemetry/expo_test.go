package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestPrometheusGolden pins the whole text exposition byte for byte:
// family ordering (sorted by name), HELP/TYPE lines, the
// _bucket/_sum/_count triplet with the +Inf terminal bucket, and label
// rendering. A diff here means every Prometheus scraper sees the change.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	// Registered out of name order on purpose — the snapshot must sort.
	r.Gauge("zz_inflight", "In-flight requests.").Set(3)
	r.Histogram("mm_latency_seconds", "Latency.", []float64{0.1, 1}, L("alg", "mbbe")).Observe(0.05)
	r.Histogram("mm_latency_seconds", "Latency.", []float64{0.1, 1}, L("alg", "mbbe")).Observe(2)
	r.Counter("aa_hits_total", "Hits.", L("route", "flows")).Add(7)

	var b bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP aa_hits_total Hits.
# TYPE aa_hits_total counter
aa_hits_total{route="flows"} 7
# HELP mm_latency_seconds Latency.
# TYPE mm_latency_seconds histogram
mm_latency_seconds_bucket{alg="mbbe",le="0.1"} 1
mm_latency_seconds_bucket{alg="mbbe",le="1"} 1
mm_latency_seconds_bucket{alg="mbbe",le="+Inf"} 2
mm_latency_seconds_sum{alg="mbbe"} 2.05
mm_latency_seconds_count{alg="mbbe"} 2
# HELP zz_inflight In-flight requests.
# TYPE zz_inflight gauge
zz_inflight 3
`
	if got := b.String(); got != want {
		t.Fatalf("exposition drifted.\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestHandlerContentNegotiation covers the /metrics format selection:
// Prometheus text by default with the versioned Content-Type, JSON via
// either ?format=json or an Accept header naming application/json, and
// ?format winning over Accept.
func TestHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	cases := []struct {
		name     string
		path     string
		accept   string
		wantType string
		wantBody string
	}{
		{"default", "/", "", ContentTypePrometheus, "hits_total 1"},
		{"query json", "/?format=json", "", ContentTypeJSON, `"name": "hits_total"`},
		{"accept json", "/", "application/json", ContentTypeJSON, `"name": "hits_total"`},
		{"accept json with q", "/", "text/html;q=0.9, application/json;q=0.8", ContentTypeJSON, `"name": "hits_total"`},
		{"accept other", "/", "text/plain", ContentTypePrometheus, "hits_total 1"},
		{"query beats accept", "/?format=prometheus", "application/json", ContentTypePrometheus, "hits_total 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(http.MethodGet, srv.URL+tc.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.accept != "" {
				req.Header.Set("Accept", tc.accept)
			}
			resp, err := srv.Client().Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if got := resp.Header.Get("Content-Type"); got != tc.wantType {
				t.Fatalf("Content-Type = %q, want %q", got, tc.wantType)
			}
			var b bytes.Buffer
			if _, err := b.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(b.String(), tc.wantBody) {
				t.Fatalf("body missing %q:\n%s", tc.wantBody, b.String())
			}
		})
	}
}

// TestConcurrentHistogramObserve hammers one histogram from many
// goroutines while a reader snapshots it; under -race this is the
// atomic-correctness check for the hot Observe path.
func TestConcurrentHistogramObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "", []float64{0.001, 0.01, 0.1, 1})
	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(i%5) * 0.005)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("count = %d, want %d", got, workers*perWorker)
	}
	// The settled snapshot must be internally consistent: the +Inf bucket
	// equals the total count.
	snap := r.Snapshot()
	buckets := snap.Families[0].Series[0].Buckets
	if last := buckets[len(buckets)-1]; last.Count != workers*perWorker {
		t.Fatalf("+Inf bucket = %d, want %d", last.Count, workers*perWorker)
	}
}

// TestSnapshotJSONRoundTrip: what /metrics?format=json writes decodes back
// into the snapshot it was written from — the "+Inf" bucket bound included —
// and Series finds in it what the registry recorded.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zz_inflight", "In-flight requests.").Set(3)
	r.Histogram("mm_latency_seconds", "Latency.", []float64{0.1, 1}, L("alg", "mbbe"), L("stage", "embed")).Observe(0.05)
	r.Histogram("mm_latency_seconds", "Latency.", []float64{0.1, 1}, L("alg", "mbbe"), L("stage", "queue")).Observe(2)
	r.Counter("aa_hits_total", "Hits.", L("route", "flows")).Add(7)
	r.Counter("aa_hits_total", "Hits.", L("route", "network")).Add(0)
	want := r.Snapshot()

	var b bytes.Buffer
	if err := want.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got Snapshot
	if err := json.Unmarshal(b.Bytes(), &got); err != nil {
		t.Fatalf("the JSON exposition does not decode: %v\n%s", err, b.String())
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the snapshot:\n got %+v\nwant %+v", got, want)
	}
	for _, bad := range []string{`{"le":"-Inf","count":1}`, `{"le":[],"count":1}`, `{"le":1,"count":-1}`} {
		var bc BucketCount
		if err := json.Unmarshal([]byte(bad), &bc); err == nil {
			t.Errorf("bucket %s decoded to %+v, want an error", bad, bc)
		}
	}

	if ss, ok := got.Series("zz_inflight"); !ok || ss.Value != 3 {
		t.Errorf("label-free gauge: %+v, %v", ss, ok)
	}
	if ss, ok := got.Series("aa_hits_total", L("route", "flows")); !ok || ss.Value != 7 {
		t.Errorf("labelled counter: %+v, %v", ss, ok)
	}
	if ss, ok := got.Series("aa_hits_total", L("route", "network")); !ok || ss.Value != 0 {
		t.Errorf("a counter at zero is present, not absent: %+v, %v", ss, ok)
	}
	ss, ok := got.Series("mm_latency_seconds", L("stage", "queue"))
	if !ok || len(ss.Buckets) != 3 || !math.IsInf(ss.Buckets[2].UpperBound, 1) || ss.Buckets[2].Count != 1 || ss.Buckets[1].Count != 0 {
		t.Errorf("histogram series by one of its labels: %+v, %v", ss, ok)
	}
	if _, ok := got.Series("aa_hits"); ok {
		t.Error("a family-name prefix matched")
	}
	if _, ok := got.Series("aa_hits_total", L("route", "flows"), L("alg", "mbbe")); ok {
		t.Error("a series lacking one of the labels matched")
	}
	if _, ok := got.Series("aa_hits_total"); !ok {
		t.Error("no labels given: any series of the family answers")
	}
}
