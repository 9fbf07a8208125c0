package telemetry

import (
	"sync"
	"time"
)

// Shared metric names. Every embedding algorithm under comparison —
// BBE/MBBE (internal/core) and MINV/RANV (internal/baseline) — records
// the same families, labeled by alg, so one Prometheus scrape compares
// them directly. "Search nodes" is each algorithm's unit of explored
// state: FST/BST tree nodes for BBE/MBBE, candidate instances examined for
// the baselines.
const (
	MetricEmbedAttempts  = "dagsfc_embed_attempts_total"
	MetricEmbedFailures  = "dagsfc_embed_failures_total"
	MetricEmbedLatency   = "dagsfc_embed_latency_seconds"
	MetricSearchNodes    = "dagsfc_embed_search_nodes_total"
	MetricLayeredRuns    = "dagsfc_embed_layered_runs_total"
	MetricLayeredSettled = "dagsfc_embed_layered_settled_states"
	MetricPathTreeNodes  = "dagsfc_embed_path_tree_nodes"
)

// Serving-layer metric names: commits the ledger refused, the admission
// pipeline's requests, the depth of its queue and the flows it holds.
// MetricCommitConflicts keeps the exposition name it was first published
// under, which the repository benchmark reads by name.
const (
	MetricCommitConflicts   = "dagsfc_online_commit_failures_total"
	MetricServerRequests    = "dagsfc_server_requests_total"
	MetricServerLatency     = "dagsfc_server_request_latency_seconds"
	MetricServerQueueDepth  = "dagsfc_server_queue_depth"
	MetricServerActiveFlows = "dagsfc_server_active_flows"
)

// counter, gauge and histogram declare a label-free family once: its name
// and help, registered on the Default registry by the handle's first call,
// which every later call returns without a registry lookup.
func counter(name, help string) func() *Counter {
	return sync.OnceValue(func() *Counter { return Default().Counter(name, help) })
}

func gauge(name, help string) func() *Gauge {
	return sync.OnceValue(func() *Gauge { return Default().Gauge(name, help) })
}

// histogram's families are latencies, over DefLatencyBuckets.
func histogram(name, help string) func() *Histogram {
	return sync.OnceValue(func() *Histogram { return Default().Histogram(name, help, DefLatencyBuckets()) })
}

// seriesMemo declares a labelled family once: resolve registers the series
// of one key (a label value, or a pair of them) on the Default registry, and
// the memo keeps what it returned for the recorders that run on every
// request — going through the registry each time means canonicalising the
// label set, checking the buckets and taking the registry lock once per
// series. A series is listed from the first sample that names its key.
// Label values are code constants, so the map stays small. The registry
// getters are idempotent, so two goroutines resolving the same key at once
// end up with the same series; either copy may win.
type seriesMemo[K comparable, M any] struct {
	resolve func(K) *M
	mu      sync.RWMutex
	m       map[K]*M
}

func (s *seriesMemo[K, M]) get(key K) *M {
	s.mu.RLock()
	h := s.m[key]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	h = s.resolve(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]*M)
	}
	s.m[key] = h
	s.mu.Unlock()
	return h
}

// labelledCounter and labelledHistogram declare a family of one label.
func labelledCounter(name, help, label string) *seriesMemo[string, Counter] {
	return &seriesMemo[string, Counter]{resolve: func(v string) *Counter {
		return Default().Counter(name, help, L(label, v))
	}}
}

func labelledHistogram(name, help, label string, buckets []float64) *seriesMemo[string, Histogram] {
	return &seriesMemo[string, Histogram]{resolve: func(v string) *Histogram {
		return Default().Histogram(name, help, buckets, L(label, v))
	}}
}

// labelPair keys the families of two labels.
type labelPair struct{ a, b string }

// Tree-store metric names: tree requests an embed arena served from a
// tree it kept, Dijkstra trees actually rooted, and kept trees the arenas
// dropped.
const (
	MetricPathCacheHits      = "dagsfc_path_cache_hits_total"
	MetricPathCacheMisses    = "dagsfc_path_cache_misses_total"
	MetricPathCacheEvictions = "dagsfc_path_cache_evictions_total"
)

var (
	pathCacheHits      = counter(MetricPathCacheHits, "Dijkstra tree requests served from a tree an embed arena kept.")
	pathCacheMisses    = counter(MetricPathCacheMisses, "Dijkstra trees rooted afresh by ledger-backed embeds.")
	pathCacheEvictions = counter(MetricPathCacheEvictions, "Kept Dijkstra trees an embed arena dropped: by its size bound, with a displaced view, or for a run without a ledger.")
)

// RecordPathCacheHits records n tree requests served from a kept tree; an
// embedding run reports its total once, when it ends.
func RecordPathCacheHits(n uint64) {
	if n > 0 {
		pathCacheHits().Add(float64(n))
	}
}

// RecordPathCacheMiss records one Dijkstra tree rooted afresh by a
// ledger-backed run, whether the arena keeps it or it stays private to a
// banned run.
func RecordPathCacheMiss() { pathCacheMisses().Inc() }

// RecordPathCacheEvictions counts n kept trees dropped.
func RecordPathCacheEvictions(n int) {
	if n > 0 {
		pathCacheEvictions().Add(float64(n))
	}
}

// InitPathCacheMetrics pre-creates the tree-store families at zero so they
// appear in scrapes before the first embed touches a store.
func InitPathCacheMetrics() {
	pathCacheHits()
	pathCacheMisses()
	pathCacheEvictions()
}

// Compiled cost-view metric names.
const (
	MetricCostViewBuilds = "dagsfc_costview_builds_total"
	MetricCostViewReuses = "dagsfc_costview_reuses_total"
)

var (
	costViewBuilds = counter(MetricCostViewBuilds, "Cost views compiled fresh from ledger residuals.")
	costViewReuses = counter(MetricCostViewReuses, "Cost-view acquisitions served the view an embed arena kept.")
)

// RecordCostView records one cost-view acquisition by an embedding run: a
// build compiled a view the run searches on (bound to its arena's tree
// store, or private to the run), a reuse found the store's view of the same
// content.
func RecordCostView(build bool) {
	if build {
		costViewBuilds().Inc()
		return
	}
	costViewReuses().Inc()
}

// InitCostViewMetrics pre-creates the cost-view counter families at zero
// so they appear in scrapes before the first embed compiles a view.
func InitCostViewMetrics() {
	costViewBuilds()
	costViewReuses()
}

// Survivability metric names: the faults quarantining capacity, the
// server's flow repairs, worker panic recoveries and the admission circuit
// breaker.
const (
	MetricFaultsActive       = "dagsfc_faults_active"
	MetricServerRepairs      = "dagsfc_server_repairs_total"
	MetricServerWorkerPanics = "dagsfc_server_worker_panics_total"
	MetricServerBreakerState = "dagsfc_server_breaker_state"
	MetricServerBreakerTrips = "dagsfc_server_breaker_trips_total"
)

var (
	repairs      = labelledCounter(MetricServerRepairs, "Flow repairs by terminal outcome.", "outcome")
	workerPanics = counter(MetricServerWorkerPanics, "Panics recovered in embed workers.")
	breakerState = gauge(MetricServerBreakerState, "Admission breaker state (0=closed, 1=half-open, 2=open).")
	breakerTrips = counter(MetricServerBreakerTrips, "Times the admission breaker tripped open.")
)

// RecordRepair records the terminal outcome of one flow repair:
// "revalidated" (survived in place), "repaired" (re-embedded) or
// "evicted" (retries exhausted).
func RecordRepair(outcome string) { repairs.get(outcome).Inc() }

// RecordWorkerPanic records one recovered panic in an embed worker (the
// request fails; the process survives).
func RecordWorkerPanic() { workerPanics().Inc() }

// SetBreakerState publishes the admission circuit breaker's state
// (0=closed, 1=half-open, 2=open); entering open counts one trip.
func SetBreakerState(state int) {
	breakerState().Set(float64(state))
	if state == 2 {
		breakerTrips().Inc()
	}
}

// EmbedSample is one completed embedding attempt, however it was
// produced.
type EmbedSample struct {
	// Alg labels the algorithm ("bbe", "mbbe", "minv", "ranv", ...).
	Alg string
	// Elapsed is the attempt's wall-clock time.
	Elapsed time.Duration
	// Failed marks attempts that found no feasible embedding.
	Failed bool
	// SearchNodes counts the attempt's work in the algorithm's own unit
	// (see the metric-name comment above).
	SearchNodes int
	// PathTreeNodes is the number of nodes the attempt settled in Dijkstra
	// trees of its own (core.Stats.PathTreeNodes). Zero — an attempt served
	// by the shared tree store, or one that needed no tree — is not a
	// sample of MetricPathTreeNodes.
	PathTreeNodes int
}

// embedInstruments are the series every RecordEmbed sample moves, resolved
// together per alg label.
type embedInstruments struct {
	attempts, searchNodes *Counter
	latency               *Histogram
}

// settledBuckets span the states a search settles: 16 to 32768.
var settledBuckets = ExpBuckets(16, 2, 12)

var (
	embedInstr = seriesMemo[string, embedInstruments]{resolve: func(alg string) *embedInstruments {
		r, l := Default(), L("alg", alg)
		return &embedInstruments{
			attempts:    r.Counter(MetricEmbedAttempts, "Embedding attempts by algorithm.", l),
			searchNodes: r.Counter(MetricSearchNodes, "Search states explored (tree nodes, candidates examined, or proposals).", l),
			latency:     r.Histogram(MetricEmbedLatency, "Wall-clock seconds per embedding attempt.", DefLatencyBuckets(), l),
		}
	}}
	// An algorithm's failure and private-tree series are listed from the
	// first sample that moves them.
	embedFailures = labelledCounter(MetricEmbedFailures, "Embedding attempts that found no feasible solution.", "alg")
	pathTreeNodes = labelledHistogram(MetricPathTreeNodes,
		"Nodes settled per embedding attempt by the Dijkstra trees it grew on a view of its own.", "alg", settledBuckets)
)

// RecordEmbed records one embedding attempt on the Default registry.
func RecordEmbed(s EmbedSample) {
	in := embedInstr.get(s.Alg)
	in.attempts.Inc()
	if s.Failed {
		embedFailures.get(s.Alg).Inc()
	}
	in.latency.Observe(s.Elapsed.Seconds())
	in.searchNodes.Add(float64(s.SearchNodes))
	if s.PathTreeNodes > 0 {
		pathTreeNodes.get(s.Alg).Observe(float64(s.PathTreeNodes))
	}
}

var (
	layeredRuns = seriesMemo[labelPair, Counter]{resolve: func(k labelPair) *Counter {
		return Default().Counter(MetricLayeredRuns,
			"Runs of single-VNF layers searched by the layered shortest-path kernel, by outcome.",
			L("alg", k.a), L("outcome", k.b))
	}}
	layeredSettled = labelledHistogram(MetricLayeredSettled, "States settled per layered shortest-path search.", "alg", settledBuckets)
)

// RecordLayeredRun records one run of single-VNF layers an embedding
// attempt handed to the layered shortest-path kernel: whether the kernel's
// answer stood ("exact") or the per-layer search had to take the run over
// ("fallback"), and how many states the search settled.
func RecordLayeredRun(alg string, fallback bool, settled int) {
	outcome := "exact"
	if fallback {
		outcome = "fallback"
	}
	layeredRuns.get(labelPair{alg, outcome}).Inc()
	layeredSettled.get(alg).Observe(float64(settled))
}

var commitConflicts = counter(MetricCommitConflicts, "Server commits the ledger refused after a successful embed: stale-snapshot conflicts.")

// RecordCommitConflict records one commit that failed against the shared
// ledger after a successful speculative embed: a stale-snapshot conflict.
func RecordCommitConflict() { commitConflicts().Inc() }

// Flight-recorder metric names: per-stage pipeline latencies derived from
// journal event pairs, and the journal's self-accounting (ring overflow is
// counted, never silent).
const (
	MetricServerStageSeconds = "dagsfc_server_stage_seconds"
	MetricJournalEvents      = "dagsfc_journal_events_total"
	MetricJournalDropped     = "dagsfc_journal_dropped_total"
)

// The stage labels of MetricServerStageSeconds: time a request waited for
// an embed slot, the speculative embed itself, the wait
// between embed completion and the serialized commit decision, and the
// span from fault-stranding to a repair's terminal outcome.
const (
	StageQueueWait  = "queue_wait"
	StageEmbed      = "embed"
	StageCommitWait = "commit_wait"
	StageRepair     = "repair"
	// StageFailover is the span from a fault hitting a protected flow's
	// primary to its backup being live as the new primary — the bounded
	// switch the protection layer exists to deliver.
	StageFailover = "failover"
)

var (
	stages = labelledHistogram(MetricServerStageSeconds,
		"Serving-pipeline stage durations derived from journal event pairs.", "stage", DefLatencyBuckets())
	journalEvents  = counter(MetricJournalEvents, "Lifecycle events appended to the flight-recorder journal.")
	journalDropped = counter(MetricJournalDropped, "Journal events evicted by ring overflow.")
)

// RecordServerStage records one pipeline-stage duration (the histogram
// behind the per-stage p50/p95/p99 table dagsfc-load prints).
func RecordServerStage(stage string, elapsed time.Duration) {
	stages.get(stage).Observe(elapsed.Seconds())
}

// RecordJournalAppend records one journal append and, when the ring
// evicted an old event to make room, the drop.
func RecordJournalAppend(dropped bool) {
	journalEvents().Inc()
	if dropped {
		journalDropped().Inc()
	}
}

// Protection metric names: the protected-embedding subsystem — how many
// flows currently hold a reserved backup, how many failovers and
// background re-protections have run, and how many backup admissions
// found no disjoint placement — and how many of those were refused
// unsearched, because the endpoints are not 2-edge-connected and no
// algorithm could protect them.
const (
	MetricProtectBackupsActive      = "dagsfc_protect_backups_active"
	MetricProtectFailovers          = "dagsfc_protect_failovers_total"
	MetricProtectReprotects         = "dagsfc_protect_reprotects_total"
	MetricProtectBackupAdmitFailure = "dagsfc_protect_backup_admit_failures_total"
	MetricProtectUnprotectable      = "dagsfc_protect_backup_unprotectable_total"
)

var (
	backupsActive        = gauge(MetricProtectBackupsActive, "Flows currently holding a reserved backup embedding.")
	failovers            = counter(MetricProtectFailovers, "Backup embeddings promoted to primary after a fault.")
	reprotects           = counter(MetricProtectReprotects, "Fresh backup embeddings reserved by the restore controller.")
	backupAdmitFailures  = counter(MetricProtectBackupAdmitFailure, "Backup embed attempts that found no disjoint placement.")
	unprotectableBackups = counter(MetricProtectUnprotectable,
		"Backup embed attempts refused unsearched: the endpoints are not 2-edge-connected.")
)

// RecordFailover records one backup promotion (fault killed the primary,
// the pre-reserved backup took over without a re-embed).
func RecordFailover() { failovers().Inc() }

// RecordReprotect records the restore controller reserving a fresh
// backup for a flow that lost one.
func RecordReprotect() { reprotects().Inc() }

// RecordBackupAdmitFailure records a protected admission or re-protect
// attempt that found no disjoint backup placement; unprotectable marks the
// ones refused without a search because the endpoints are not
// 2-edge-connected, which are counted a second time under their own name.
func RecordBackupAdmitFailure(unprotectable bool) {
	backupAdmitFailures().Inc()
	if unprotectable {
		unprotectableBackups().Inc()
	}
}

// InitProtectMetrics registers the protection counters at zero so scrapes
// see the family before the first protected flow arrives.
func InitProtectMetrics() {
	failovers()
	reprotects()
	backupAdmitFailures()
	unprotectableBackups()
}

// Durability metric names: the write-ahead log's append/fsync traffic,
// snapshot work, and how much recovery had to replay.
const (
	MetricWALAppends         = "dagsfc_wal_appends_total"
	MetricWALFsyncs          = "dagsfc_wal_fsyncs_total"
	MetricWALBytes           = "dagsfc_wal_bytes_total"
	MetricWALSnapshotSeconds = "dagsfc_wal_snapshot_seconds"
	MetricWALSnapshotBytes   = "dagsfc_wal_snapshot_bytes"
	MetricWALReplayed        = "dagsfc_wal_recovery_replayed_total"
	MetricWALBroken          = "dagsfc_wal_broken"
	MetricWALErrors          = "dagsfc_wal_errors_total"
)

var (
	walAppends         = counter(MetricWALAppends, "Records appended to the write-ahead log.")
	walFsyncs          = counter(MetricWALFsyncs, "fsyncs of the active WAL segment.")
	walBytes           = counter(MetricWALBytes, "Framed bytes appended to the write-ahead log.")
	walSnapshotSeconds = histogram(MetricWALSnapshotSeconds, "Wall-clock seconds per WAL snapshot write.")
	walSnapshotBytes   = gauge(MetricWALSnapshotBytes, "Payload size of the most recent WAL snapshot.")
	walReplayed        = counter(MetricWALReplayed, "WAL records replayed during startup recovery.")
	walBroken          = gauge(MetricWALBroken, "1 while a WAL disk error has durability switched off.")
	walErrors          = counter(MetricWALErrors, "WAL appends, fsyncs and snapshots that failed.")
)

// RecordWALAppend records one record appended to the write-ahead log and
// its framed size in bytes.
func RecordWALAppend(bytes int) {
	walAppends().Inc()
	walBytes().Add(float64(bytes))
}

// RecordWALFsync records one fsync of the active WAL segment.
func RecordWALFsync() { walFsyncs().Inc() }

// RecordWALSnapshot records one completed state snapshot: its payload
// size and how long the write (including the pre-snapshot sync) took.
func RecordWALSnapshot(bytes int, elapsed time.Duration) {
	walSnapshotBytes().Set(float64(bytes))
	walSnapshotSeconds().Observe(elapsed.Seconds())
}

// RecordWALReplay records how many log records startup recovery replayed
// past the snapshot watermark.
func RecordWALReplay(n int) { walReplayed().Add(float64(n)) }

// SetWALBroken publishes whether the server has latched a WAL failure and
// stopped writing records (1) or is logging normally (0).
func SetWALBroken(broken bool) {
	v := 0.0
	if broken {
		v = 1
	}
	walBroken().Set(v)
}

// RecordWALError records one failed WAL append, fsync or snapshot.
func RecordWALError() { walErrors().Inc() }

// InitWALMetrics pre-creates the WAL counter families at zero so a
// freshly recovered (or fresh) server exposes them before traffic.
func InitWALMetrics() {
	SetWALBroken(false)
	walErrors()
	walAppends()
	walFsyncs()
	walBytes()
	walReplayed()
}

var (
	requests = seriesMemo[labelPair, Counter]{resolve: func(k labelPair) *Counter {
		return Default().Counter(MetricServerRequests, "Serving-layer requests by route and outcome.",
			L("route", k.a), L("outcome", k.b))
	}}
	requestLatency = labelledHistogram(MetricServerLatency,
		"Wall-clock seconds per serving-layer request.", "route", DefLatencyBuckets())
	queueDepth   = gauge(MetricServerQueueDepth, "Flow requests waiting in the admission queue.")
	activeFlows  = gauge(MetricServerActiveFlows, "Committed flows not yet released.")
	faultsActive = gauge(MetricFaultsActive, "Faults currently quarantining capacity.")
)

// RecordServerRequest records one serving-layer request on the Default
// registry: a per-route/outcome counter and a per-route latency histogram.
func RecordServerRequest(route, outcome string, elapsed time.Duration) {
	requests.get(labelPair{route, outcome}).Inc()
	requestLatency.get(route).Observe(elapsed.Seconds())
}

// AddServerQueueDepth moves the number of requests waiting for an embed
// slot by delta: +1 for a request admitted to wait, -1 for one that took its
// slot or gave up waiting. A zero delta only lists the gauge.
func AddServerQueueDepth(delta int) { queueDepth().Add(float64(delta)) }

// SetFlowState publishes the flow state's counts: committed flows holding
// a primary, flows holding a reserved backup, and faults quarantining
// capacity.
func SetFlowState(active, backups, faults int) {
	activeFlows().Set(float64(active))
	backupsActive().Set(float64(backups))
	faultsActive().Set(float64(faults))
}
