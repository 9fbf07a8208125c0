package main

import (
	"math"
	"testing"
)

const pageBefore = `# HELP dagsfc_server_stage_seconds Pipeline stage latency.
# TYPE dagsfc_server_stage_seconds histogram
dagsfc_server_stage_seconds_bucket{stage="embed",le="0.001"} 3
dagsfc_server_stage_seconds_bucket{stage="embed",le="+Inf"} 10
dagsfc_server_stage_seconds_sum{stage="embed"} 0.02
dagsfc_server_stage_seconds_count{stage="embed"} 10
# TYPE dagsfc_path_cache_hits_total counter
dagsfc_path_cache_hits_total 7
# TYPE dagsfc_server_requests_total counter
dagsfc_server_requests_total{outcome="accepted",route="flows.create"} 10
`

const pageAfter = `# TYPE dagsfc_server_stage_seconds histogram
dagsfc_server_stage_seconds_sum{stage="embed"} 0.08
dagsfc_server_stage_seconds_count{stage="embed"} 30
dagsfc_server_stage_seconds_sum{stage="failover"} 0.003
dagsfc_server_stage_seconds_count{stage="failover"} 2
# TYPE dagsfc_path_cache_hits_total counter
dagsfc_path_cache_hits_total 19
# TYPE dagsfc_server_requests_total counter
dagsfc_server_requests_total{outcome="accepted",route="flows.create"} 30
dagsfc_server_requests_total{outcome="ok",route="flows.expire"} 4
# TYPE dagsfc_server_repairs_total counter
dagsfc_server_repairs_total{outcome="repaired"} 3
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(pageBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(pageAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := promDelta{before, after}

	if v, err := d.counter("dagsfc_path_cache_hits_total"); err != nil || v != 12 {
		t.Errorf("counter delta = %v, %v; want 12", v, err)
	}
	// A label set first seen after the replay started from 0.
	if v, err := d.counter(`dagsfc_server_requests_total{outcome="ok",route="flows.expire"}`); err != nil || v != 4 {
		t.Errorf("new label set delta = %v, %v; want 4", v, err)
	}
	// An untouched label set of a declared family reads 0.
	if v, err := d.counter(`dagsfc_server_requests_total{outcome="conflict",route="flows.create"}`); err != nil || v != 0 {
		t.Errorf("untouched label set = %v, %v; want 0", v, err)
	}
	// Mean from _sum/_count deltas: (0.08-0.02)/(30-10).
	m, n, err := d.histMean("dagsfc_server_stage_seconds", `{stage="embed"}`)
	if err != nil || math.Abs(m-0.003) > 1e-15 || n != 20 {
		t.Errorf("histMean = %v over %v, %v; want 0.003 over 20", m, n, err)
	}
	// No observations in the interval is a mean of 0, not NaN.
	if m, n, err := d.histMean("dagsfc_server_stage_seconds", `{stage="repair"}`); err != nil || m != 0 || n != 0 {
		t.Errorf("empty histMean = %v over %v, %v", m, n, err)
	}
	// A family the page does not declare is an error, not a zero …
	if _, err := d.counter("dagsfc_wal_appends_total"); err == nil {
		t.Error("missing family read as a value")
	}
	if _, _, err := d.histMean("dagsfc_wal_snapshot_seconds", ""); err == nil {
		t.Error("missing histogram family read as a value")
	}
	// … except through lazyCounter, for families registered on first use.
	if v := d.lazyCounter("dagsfc_server_worker_panics_total"); v != 0 {
		t.Errorf("lazy counter of an unregistered family = %v", v)
	}
	if v := d.lazyCounter(`dagsfc_server_repairs_total{outcome="repaired"}`); v != 3 {
		t.Errorf("lazy counter registered mid-replay = %v, want 3", v)
	}
}

func TestParsePromRejectsGarbage(t *testing.T) {
	for _, page := range []string{"dagsfc_x_total", "dagsfc_x_total twelve"} {
		if _, err := parseProm(page); err == nil {
			t.Errorf("parseProm(%q) succeeded", page)
		}
	}
}

func TestScrapeRegistryIsTheMetricsPage(t *testing.T) {
	sc, err := scrapeRegistry()
	if err != nil {
		t.Fatal(err)
	}
	for series := range sc.values {
		if !sc.families[family(series)] && !sc.families[seriesName(series)] {
			t.Errorf("series %q has no TYPE line", series)
		}
	}
}
