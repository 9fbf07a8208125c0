package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"

	"dagsfc/internal/core"
	"dagsfc/internal/stats"
)

// layerReport is the traced pass's outcome: one value per perLayer
// metric (absent means the workload bypasses that layer: reported as 0)
// and the waterfalls to print.
type layerReport struct {
	values     map[string]float64
	waterfalls []namedWaterfall
	spans      int
}

type namedWaterfall struct {
	title string
	rows  []waterfallRow
	ops   int
}

func (lr *layerReport) print(w io.Writer) {
	for _, wf := range lr.waterfalls {
		printWaterfall(w, wf.title, wf.rows, wf.ops)
	}
}

// tracedPass replays the workload with spans on the started runner r and
// reduces them, the /metrics deltas and the probes to per-layer figures.
// m is the untraced measurement of the same ops on the same process: the
// base of proc.* and of the tracing overhead.
func tracedPass(sp spec, in inputs, r runner, m measured, outDir string) (*layerReport, error) {
	lr := &layerReport{values: map[string]float64{}}
	var tr *tracer
	var traced roundResult
	var err error
	switch r := r.(type) {
	case *libRunner:
		tr, traced, err = lr.traceLib(r, in)
	case *serveRunner:
		tr, traced, err = lr.traceServe(r, in, outDir)
	}
	if err != nil {
		return nil, err
	}
	lr.procValues(m, traced)
	lr.spans = len(tr.spans)
	if err := tr.writeJSON(filepath.Join(outDir, sp.Name+".trace.json"), sp.Name); err != nil {
		return nil, err
	}
	return lr, nil
}

// set stores a per-layer value, refusing names the tables do not list so
// a typo cannot drop a metric silently.
func (lr *layerReport) set(name string, v float64) {
	for _, d := range perLayer {
		if d.Name == name {
			lr.values[name] = v
			return
		}
	}
	panic("benchmark: per-layer metric " + name + " is not in the perLayer table")
}

func (lr *layerReport) procValues(m measured, traced roundResult) {
	per := func(f func(roundResult) float64) float64 { return medianOfRounds(m.Rounds, f) }
	lr.set("proc.alloc_kb_per_op", per(func(r roundResult) float64 {
		return float64(r.After.AllocBytes-r.Before.AllocBytes) / 1024 / float64(r.Ops)
	}))
	lr.set("proc.gc_cycles_per_kop", per(func(r roundResult) float64 {
		return 1000 * float64(r.After.NumGC-r.Before.NumGC) / float64(r.Ops)
	}))
	var pause float64
	for _, r := range m.Rounds {
		if p := float64(r.MaxPause) / 1e6; p > pause {
			pause = p
		}
	}
	lr.set("proc.gc_pause_ms_max", pause)
	lr.set("proc.cpu_util", per(func(r roundResult) float64 {
		return float64(r.After.CPU-r.Before.CPU) / float64(r.Wall) / procs
	}))
	lr.set("proc.peak_rss_mb", float64(sampleProc().MaxRSSKB)/1024)
	base := per(func(r roundResult) float64 { return float64(r.Wall) / float64(r.Ops) })
	lr.set("proc.trace_overhead_pct", 100*(float64(traced.Wall)/float64(traced.Ops)-base)/base)
}

// spanStats fills the metrics both kinds of workload derive from library
// spans and probes.
func (lr *layerReport) spanStats(tr *tracer, searched core.Stats, ops int) {
	embed := tr.durations("core.embed")
	lr.set("core.embed_ms_p50", quantile(embed, 0.50))
	lr.set("core.embed_ms_p99", quantile(embed, 0.99))
	lr.set("core.embed_allocs", stats.Mean(tr.samples["core.embed_allocs"]))
	lr.set("core.embed_kb", stats.Mean(tr.samples["core.embed_kb"]))
	lr.set("core.validate_us", 1e3*stats.Mean(tr.durations("core.validate")))
	n := float64(ops)
	lr.set("core.searches_per_op", float64(searched.ForwardSearches+searched.BackwardSearches)/n)
	lr.set("core.tree_nodes_per_op", float64(searched.TreeNodes)/n)
	lr.set("core.extensions_per_op", float64(searched.Extensions)/n)
	lr.set("core.subsolutions_per_op", float64(searched.SubSolutions)/n)
	lr.set("core.capacity_rejections_per_op", float64(searched.CapacityRejections)/n)
	for _, name := range []string{"graph.compile_view_us", "graph.dijkstra_us", "graph.dijkstra_banned_us"} {
		lr.set(name, median(tr.samples[name]))
	}
	lr.set("network.commit_us", 1e3*stats.Mean(tr.durations("network.commit")))
	lr.set("network.release_us", 1e3*stats.Mean(tr.durations("network.release")))
	lr.set("network.epoch_moves_per_op", tr.counts["network.epoch_moves"]/n)
}

// cacheStats reads the cross-request cache counters: how many Dijkstra
// trees were actually computed per op, and how often a tree or a compiled
// view was served from an earlier request.
func (lr *layerReport) cacheStats(d promDelta, ops int) error {
	hits, err := d.counter("dagsfc_path_cache_hits_total")
	if err != nil {
		return err
	}
	misses, err := d.counter("dagsfc_path_cache_misses_total")
	if err != nil {
		return err
	}
	builds, err := d.counter("dagsfc_costview_builds_total")
	if err != nil {
		return err
	}
	reuses, err := d.counter("dagsfc_costview_reuses_total")
	if err != nil {
		return err
	}
	lr.set("graph.trees_per_op", misses/float64(ops))
	lr.set("graph.treecache_hit_ratio", ratio(hits, hits+misses))
	lr.set("graph.costview_reuse_ratio", ratio(reuses, reuses+builds))
	return nil
}

func ratio(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

func (lr *layerReport) traceLib(r *libRunner, in inputs) (*tracer, roundResult, error) {
	before, err := scrapeRegistry()
	if err != nil {
		return nil, roundResult{}, err
	}
	tr := newTracer()
	res, err := r.round(in.Ops, nil, tr)
	if err == nil {
		err = r.check()
	}
	if err != nil {
		return nil, res, fmt.Errorf("traced round: %w", err)
	}
	after, err := scrapeRegistry()
	if err != nil {
		return nil, res, err
	}
	lr.spanStats(tr, res.Stats, res.Ops)
	if err := lr.cacheStats(promDelta{before, after}, res.Ops); err != nil {
		return nil, res, err
	}
	lr.waterfalls = append(lr.waterfalls, namedWaterfall{"library loop", waterfall(tr.spans), res.Ops})
	return tr, res, nil
}

func (lr *layerReport) traceServe(r *serveRunner, in inputs, outDir string) (*tracer, roundResult, error) {
	ctx := context.Background()
	scrapeHTTP := func() (scrape, error) {
		text, err := r.clients[0].Metrics(ctx)
		if err != nil {
			return scrape{}, err
		}
		return parseProm(text)
	}
	fail := func(err error) (*tracer, roundResult, error) { return nil, roundResult{}, err }

	// Leg 1: over HTTP, with /metrics read before and after.
	before, err := scrapeHTTP()
	if err != nil {
		return fail(err)
	}
	tr := newTracer()
	httpRes, err := r.round(in.Ops, in.Faults, tr)
	if err == nil {
		err = r.check()
	}
	if err != nil {
		return fail(fmt.Errorf("traced HTTP replay: %w", err))
	}
	after, err := scrapeHTTP()
	if err != nil {
		return fail(err)
	}
	httpSpans := len(tr.spans)

	// Leg 2: the same ops through the server's exported methods.
	apis := make([]flowAPI, r.sp.Clients)
	for i := range apis {
		apis[i] = inprocAPI{r.srv}
	}
	inRes, err := r.replay(apis, spanNames{"server.submit", "server.release"}, in.Ops, in.Faults, tr)
	if err == nil {
		err = r.check()
	}
	if err != nil {
		return fail(fmt.Errorf("traced in-process replay: %w", err))
	}
	inSpans := len(tr.spans)

	// Leg 3: the library calls underneath, on one goroutine.
	searched, err := r.libraryReplay(in.Ops, tr, outDir)
	if err != nil {
		return fail(fmt.Errorf("traced library replay: %w", err))
	}
	n := float64(httpRes.Ops)
	d := promDelta{before, after}

	createP50 := quantile(spanMs(tr.spans[:httpSpans], "client.create_flow"), 0.5)
	submitP50 := quantile(spanMs(tr.spans[httpSpans:inSpans], "server.submit"), 0.5)
	lr.set("http.overhead_ms", createP50-submitP50)
	if rel := spanMs(tr.spans[:httpSpans], "client.release_flow"); len(rel) > 0 {
		lr.set("http.release_ms", quantile(rel, 0.5))
	}
	lr.set("sfc.standardize_us", 1e3*stats.Mean(tr.durations("sfc.standardize")))
	lr.spanStats(tr, searched, len(in.Ops))
	if b := tr.durations("core.backup_embed"); len(b) > 0 {
		lr.set("core.backup_embed_ms_p50", quantile(b, 0.5))
	}
	lr.set("network.snapshot_us", 1e3*stats.Mean(tr.durations("network.snapshot")))
	lr.set("network.fault_apply_ms", stats.Mean(inRes.FaultLat))
	if err := lr.cacheStats(d, httpRes.Ops); err != nil {
		return fail(err)
	}

	// server: its own stage histograms over the HTTP leg, and what is left
	// of an in-process submit once the library calls under it are taken out.
	lr.set("server.submit_ms_p50", submitP50)
	for stage, name := range map[string]string{
		"queue_wait": "server.queue_wait_ms", "embed": "server.embed_ms", "commit_wait": "server.commit_wait_ms",
		"failover": "server.failover_ms", "repair": "server.repair_ms",
	} {
		m, _, err := d.histMean("dagsfc_server_stage_seconds", `{stage="`+stage+`"}`)
		if err != nil {
			return fail(err)
		}
		lr.set(name, 1e3*m)
	}
	admit := tr.spans[inSpans:]
	self := selfTimes(admit)
	var libPerOp []float64
	for i, s := range admit {
		if s.Name == "replay.admit" {
			libPerOp = append(libPerOp, float64(s.End-s.Start-self[i])/1e6)
		}
	}
	lr.set("server.unattributed_ms", submitP50-quantile(libPerOp, 0.5))
	lr.set("server.conflicts_per_kop", 1e3*d.lazyCounter("dagsfc_online_commit_failures_total")/n)
	lr.set("server.errors_per_kop", 1e3*float64(httpRes.Errors+inRes.Errors)/float64(httpRes.Ops+inRes.Ops))
	expired, err := d.counter(`dagsfc_server_requests_total{outcome="ok",route="flows.expire"}`)
	if err != nil {
		return fail(err)
	}
	lr.set("server.ttl_expiries_per_op", expired/n)
	failovers, err := d.counter("dagsfc_protect_failovers_total")
	if err != nil {
		return fail(err)
	}
	reprotects, err := d.counter("dagsfc_protect_reprotects_total")
	if err != nil {
		return fail(err)
	}
	lr.set("server.failovers", failovers)
	lr.set("server.reprotects", reprotects)
	lr.set("server.repairs", d.lazyCounter(`dagsfc_server_repairs_total{outcome="repaired"}`))
	lr.set("server.evictions", d.lazyCounter(`dagsfc_server_repairs_total{outcome="evicted"}`))

	events, err := d.counter("dagsfc_journal_events_total")
	if err != nil {
		return fail(err)
	}
	lr.set("journal.events_per_op", events/n)
	lr.set("journal.dropped", d.lazyCounter("dagsfc_journal_dropped_total"))

	if r.sp.WAL {
		lr.set("wal.append_us", 1e3*stats.Mean(tr.durations("wal.append")))
		lr.set("wal.fsync_ms", stats.Mean(tr.samples["wal.fsync_ms"]))
		for series, name := range map[string]string{
			"dagsfc_wal_appends_total": "wal.records_per_op",
			"dagsfc_wal_bytes_total":   "wal.bytes_per_op",
			"dagsfc_wal_fsyncs_total":  "wal.fsyncs_per_op",
		} {
			v, err := d.counter(series)
			if err != nil {
				return fail(err)
			}
			lr.set(name, v/n)
		}
		// Registered by the first snapshot: absent means none was due yet.
		if snap, _, err := d.histMean("dagsfc_wal_snapshot_seconds", ""); err == nil {
			lr.set("wal.snapshot_ms", 1e3*snap)
		}
	}

	lr.waterfalls = append(lr.waterfalls,
		namedWaterfall{"over HTTP", waterfall(tr.spans[:httpSpans]), httpRes.Ops},
		namedWaterfall{"in-process", waterfall(tr.spans[httpSpans:inSpans]), inRes.Ops},
		namedWaterfall{"library replay", waterfall(admit), len(in.Ops)},
	)
	return tr, httpRes, nil
}
