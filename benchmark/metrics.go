package main

import "strings"

// metricDef names one reported figure. BENCHMARK.json at the repo root
// lists the same names, units, directions and bounds; a test keeps the
// two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// layer is the module a per-layer metric belongs to: the part of its name
// before the first dot.
func (m metricDef) layer() string {
	if i := strings.IndexByte(m.Name, '.'); i >= 0 {
		return m.Name[:i]
	}
	return ""
}

// endToEnd are the gated figures, the same five on every workload, with
// the bounds of the issue that defined the benchmark. Each is the median
// of the per-round values, setup_s the median of the run's set-ups. All
// but setup_s are counts, which repeat to 0.01 % on this code.
//
// The four timings a caller sees (timings below) were specified as
// end-to-end metrics too, bounded at 0.10–0.15. On the shared 2-core VM
// the benchmark is defined on they do not repeat that well in every hour
// (README.md, "Repeatability"), and a bound the benchmark's own A/A runs
// can break gates nothing. They are measured the same way, printed by
// every run, and reported as per-layer metrics of the layer "e2e".
var endToEnd = []metricDef{
	{"accept_ratio", "ratio", "higher", 0.01},
	{"cost_per_flow", "cost", "lower", 0.005},
	{"allocs_per_op", "count", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// timings are the demoted end-to-end timings. Bound is the one the issue
// gave them: -aa prints it beside their spread, and fails nothing on it.
var timings = []metricDef{
	{"e2e.admit_p50_ms", "ms", "lower", 0.10},
	{"e2e.admit_p99_ms", "ms", "lower", 0.15},
	{"e2e.admits_per_s", "1/s", "higher", 0.10},
	{"e2e.cpu_ms_per_op", "ms", "lower", 0.10},
}

// perLayer are the traced pass's figures, grouped by the module whose
// exported API the benchmark timed or whose counters it read. A layer
// that a workload bypasses reports 0 there.
var perLayer = []metricDef{
	{Name: "e2e.admit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.admit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "e2e.admits_per_s", Unit: "1/s", Better: "higher"},
	{Name: "e2e.cpu_ms_per_op", Unit: "ms", Better: "lower"},

	{Name: "http.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "http.release_ms", Unit: "ms", Better: "lower"},

	{Name: "sfc.standardize_us", Unit: "us", Better: "lower"},

	{Name: "core.embed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.embed_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "core.embed_allocs", Unit: "count", Better: "lower"},
	{Name: "core.embed_kb", Unit: "KB", Better: "lower"},
	{Name: "core.backup_embed_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.validate_us", Unit: "us", Better: "lower"},
	{Name: "core.searches_per_op", Unit: "count", Better: "lower"},
	{Name: "core.tree_nodes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.extensions_per_op", Unit: "count", Better: "lower"},
	{Name: "core.subsolutions_per_op", Unit: "count", Better: "lower"},
	{Name: "core.capacity_rejections_per_op", Unit: "count", Better: "lower"},

	{Name: "graph.compile_view_us", Unit: "us", Better: "lower"},
	{Name: "graph.dijkstra_us", Unit: "us", Better: "lower"},
	{Name: "graph.dijkstra_banned_us", Unit: "us", Better: "lower"},
	{Name: "graph.trees_per_op", Unit: "count", Better: "lower"},
	{Name: "graph.treecache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "graph.costview_reuse_ratio", Unit: "ratio", Better: "higher"},

	{Name: "network.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "network.commit_us", Unit: "us", Better: "lower"},
	{Name: "network.release_us", Unit: "us", Better: "lower"},
	{Name: "network.epoch_moves_per_op", Unit: "count", Better: "lower"},
	{Name: "network.fault_apply_ms", Unit: "ms", Better: "lower"},

	{Name: "server.submit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.embed_ms", Unit: "ms", Better: "lower"},
	{Name: "server.commit_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "server.failover_ms", Unit: "ms", Better: "lower"},
	{Name: "server.repair_ms", Unit: "ms", Better: "lower"},
	{Name: "server.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "server.conflicts_per_kop", Unit: "count", Better: "lower"},
	{Name: "server.errors_per_kop", Unit: "count", Better: "lower"},
	{Name: "server.ttl_expiries_per_op", Unit: "count", Better: "lower"},
	{Name: "server.failovers", Unit: "count", Better: "lower"},
	{Name: "server.repairs", Unit: "count", Better: "lower"},
	{Name: "server.reprotects", Unit: "count", Better: "lower"},
	{Name: "server.evictions", Unit: "count", Better: "lower"},

	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsync_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.records_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_op", Unit: "count", Better: "lower"},
	{Name: "wal.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.recover_records", Unit: "count", Better: "lower"},

	{Name: "journal.events_per_op", Unit: "count", Better: "lower"},
	{Name: "journal.dropped", Unit: "count", Better: "lower"},

	{Name: "proc.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "proc.gc_cycles_per_kop", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms_max", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.trace_overhead_pct", Unit: "%", Better: "lower"},
}

// endToEndValues reduces a measured workload to its gated figures.
func endToEndValues(m measured) map[string]float64 {
	return map[string]float64{
		"accept_ratio":  medianOfRounds(m.Rounds, roundResult.acceptRatio),
		"cost_per_flow": medianOfRounds(m.Rounds, roundResult.costPerFlow),
		"allocs_per_op": medianOfRounds(m.Rounds, roundResult.allocsPerOp),
		"heap_live_mb":  medianOfRounds(m.Rounds, roundResult.heapLiveMB),
		"setup_s":       median(m.Setups),
	}
}

// timingValues reduces a measured workload to its timings.
func timingValues(m measured) map[string]float64 {
	return map[string]float64{
		"e2e.admit_p50_ms":  medianOfRounds(m.Rounds, roundResult.p50),
		"e2e.admit_p99_ms":  medianOfRounds(m.Rounds, roundResult.p99),
		"e2e.admits_per_s":  medianOfRounds(m.Rounds, roundResult.admitsPerS),
		"e2e.cpu_ms_per_op": medianOfRounds(m.Rounds, roundResult.cpuMsPerOp),
	}
}
