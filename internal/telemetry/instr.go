package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Shared metric names. Every embedding algorithm under comparison —
// BBE/MBBE (internal/core), MINV/RANV (internal/baseline) and SA
// (internal/anneal) — records the same families, labeled by alg, so one
// Prometheus scrape compares them directly. "Search nodes" is each
// algorithm's unit of explored state: FST/BST tree nodes for BBE/MBBE,
// candidate instances examined for the baselines, proposal evaluations
// for the annealer.
const (
	MetricEmbedAttempts  = "dagsfc_embed_attempts_total"
	MetricEmbedFailures  = "dagsfc_embed_failures_total"
	MetricEmbedLatency   = "dagsfc_embed_latency_seconds"
	MetricSearchNodes    = "dagsfc_embed_search_nodes_total"
	MetricSearches       = "dagsfc_embed_searches_total"
	MetricCandidates     = "dagsfc_embed_candidates_total"
	MetricLayeredRuns    = "dagsfc_embed_layered_runs_total"
	MetricLayeredSettled = "dagsfc_embed_layered_settled_states"
	MetricPathTreeNodes  = "dagsfc_embed_path_tree_nodes"
	MetricOnlineRequests = "dagsfc_online_requests_total"
	MetricOnlineLatency  = "dagsfc_online_request_latency_seconds"
)

// Serving-layer metric names. The dagsfc-serve control plane records the
// online families above for embed outcomes (so offline sims and the
// server share dashboards) plus these server-specific families for the
// admission pipeline.
const (
	MetricOnlineCommitFailures = "dagsfc_online_commit_failures_total"
	MetricServerRequests       = "dagsfc_server_requests_total"
	MetricServerLatency        = "dagsfc_server_request_latency_seconds"
	MetricServerQueueDepth     = "dagsfc_server_queue_depth"
	MetricServerActiveFlows    = "dagsfc_server_active_flows"
)

// Allocation-discipline metric name (PR 4): how often the pooled search
// scratch actually gets reused instead of freshly allocated.
const MetricScratchReuse = "dagsfc_embed_scratch_reuse_total"

// RecordScratchReuse records one search-scratch checkout that was served
// from the pool (a warm reuse rather than a fresh allocation).
func RecordScratchReuse() {
	Default().Counter(MetricScratchReuse,
		"Embed scratch checkouts served warm from the pool.").Inc()
}

// Shared-view store metric names: tree requests served from a shared
// view's table, Dijkstra trees actually searched, trees the store dropped,
// and what it retains right now.
const (
	MetricPathCacheHits      = "dagsfc_path_cache_hits_total"
	MetricPathCacheMisses    = "dagsfc_path_cache_misses_total"
	MetricPathCacheEvictions = "dagsfc_path_cache_evictions_total"
	MetricPathCacheViews     = "dagsfc_path_cache_views"
	MetricPathCacheTrees     = "dagsfc_path_cache_trees"
)

const (
	helpPathCacheHits      = "Path-tree cache lookups served from a cached Dijkstra tree."
	helpPathCacheMisses    = "Path-tree cache lookups that computed a fresh Dijkstra tree."
	helpPathCacheEvictions = "Path trees dropped by the size cap or with a displaced view."
	helpPathCacheViews     = "Cost views the path-tree cache currently retains."
	helpPathCacheTrees     = "Dijkstra trees the path-tree cache currently retains."
)

// RecordPathCacheHits records n tree requests served from a shared view's
// table; an embedding run reports its total once, when it ends.
func RecordPathCacheHits(n uint64) {
	if n > 0 {
		Default().Counter(MetricPathCacheHits, helpPathCacheHits).Add(float64(n))
	}
}

// RecordPathCacheMiss records one Dijkstra tree searched by a run with the
// store attached, whether the tree was then shared or stayed private to a
// banned run.
func RecordPathCacheMiss() {
	Default().Counter(MetricPathCacheMisses, helpPathCacheMisses).Inc()
}

// RecordPathCacheRetention publishes how many views and trees the store
// retains after taking one in, and counts the trees evicted to do so.
func RecordPathCacheRetention(views, trees, evicted int) {
	r := Default()
	r.Gauge(MetricPathCacheViews, helpPathCacheViews).Set(float64(views))
	r.Gauge(MetricPathCacheTrees, helpPathCacheTrees).Set(float64(trees))
	if evicted > 0 {
		r.Counter(MetricPathCacheEvictions, helpPathCacheEvictions).Add(float64(evicted))
	}
}

// InitPathCacheMetrics pre-creates the path-tree cache families at zero so
// they appear in scrapes before the first embed touches the cache.
func InitPathCacheMetrics() {
	r := Default()
	r.Counter(MetricPathCacheHits, helpPathCacheHits).Add(0)
	r.Counter(MetricPathCacheMisses, helpPathCacheMisses).Add(0)
	r.Counter(MetricPathCacheEvictions, helpPathCacheEvictions).Add(0)
	r.Gauge(MetricPathCacheViews, helpPathCacheViews).Add(0)
	r.Gauge(MetricPathCacheTrees, helpPathCacheTrees).Add(0)
}

// Compiled cost-view metric names (PR 9).
const (
	MetricCostViewBuilds = "dagsfc_costview_builds_total"
	MetricCostViewReuses = "dagsfc_costview_reuses_total"
)

// RecordCostView records one cost-view acquisition by an embedding run: a
// build compiled a view the run keeps (published to the store, or private
// to the run), a reuse was served the view the path-tree cache retains.
func RecordCostView(build bool) {
	if build {
		Default().Counter(MetricCostViewBuilds,
			"Cost views compiled fresh from ledger residuals.").Inc()
		return
	}
	Default().Counter(MetricCostViewReuses,
		"Cost-view acquisitions served from the cross-request view cache.").Inc()
}

// InitCostViewMetrics pre-creates the cost-view counter families at zero
// so they appear in scrapes before the first embed compiles a view.
func InitCostViewMetrics() {
	Default().Counter(MetricCostViewBuilds,
		"Cost views compiled fresh from ledger residuals.").Add(0)
	Default().Counter(MetricCostViewReuses,
		"Cost-view acquisitions served from the cross-request view cache.").Add(0)
}

// Survivability metric names (PR 5): the fault injector's apply/restore
// traffic, the server's flow-repair pipeline, the admission circuit
// breaker, and worker panic recoveries.
const (
	MetricFaultsApplied       = "dagsfc_faults_applied_total"
	MetricFaultsRestored      = "dagsfc_faults_restored_total"
	MetricFaultsActive        = "dagsfc_faults_active"
	MetricServerRepairs       = "dagsfc_server_repairs_total"
	MetricServerRepairRetries = "dagsfc_server_repair_attempts_total"
	MetricServerWorkerPanics  = "dagsfc_server_worker_panics_total"
	MetricServerBreakerState  = "dagsfc_server_breaker_state"
	MetricServerBreakerTrips  = "dagsfc_server_breaker_trips_total"
)

// RecordFault records one applied or restored fault, labeled by kind
// ("link-down", "node-down", "link-degrade"), and publishes the number of
// currently active faults.
func RecordFault(kind string, applied bool, active int) {
	r := Default()
	if applied {
		r.Counter(MetricFaultsApplied, "Substrate faults applied, by kind.", L("kind", kind)).Inc()
	} else {
		r.Counter(MetricFaultsRestored, "Substrate faults restored, by kind.", L("kind", kind)).Inc()
	}
	r.Gauge(MetricFaultsActive, "Faults currently quarantining capacity.").Set(float64(active))
}

// RecordRepair records the terminal outcome of one flow repair:
// "revalidated" (survived in place), "repaired" (re-embedded) or
// "evicted" (retries exhausted).
func RecordRepair(outcome string) {
	Default().Counter(MetricServerRepairs, "Flow repairs by terminal outcome.", L("outcome", outcome)).Inc()
}

// RecordRepairAttempt records one re-embed attempt inside a repair
// (several attempts may precede one terminal outcome).
func RecordRepairAttempt() {
	Default().Counter(MetricServerRepairRetries, "Re-embed attempts made by the flow repair loop.").Inc()
}

// RecordWorkerPanic records one recovered panic in an embed worker (the
// request fails; the process survives).
func RecordWorkerPanic() {
	Default().Counter(MetricServerWorkerPanics, "Panics recovered in embed workers.").Inc()
}

// SetBreakerState publishes the admission circuit breaker's state
// (0=closed, 1=half-open, 2=open) and, on a trip, bumps the trip counter.
func SetBreakerState(state int, tripped bool) {
	r := Default()
	r.Gauge(MetricServerBreakerState, "Admission breaker state (0=closed, 1=half-open, 2=open).").Set(float64(state))
	if tripped {
		r.Counter(MetricServerBreakerTrips, "Times the admission breaker tripped open.").Inc()
	}
}

// EmbedSample is one completed embedding attempt, however it was
// produced.
type EmbedSample struct {
	// Alg labels the algorithm ("bbe", "mbbe", "minv", "ranv", "sa", ...).
	Alg string
	// Elapsed is the attempt's wall-clock time.
	Elapsed time.Duration
	// Failed marks attempts that found no feasible embedding.
	Failed bool
	// SearchNodes, Searches and Candidates count the attempt's work in the
	// algorithm's own units (see the metric-name comment above).
	SearchNodes, Searches, Candidates int
	// PathTreeNodes is the number of nodes the attempt settled in Dijkstra
	// trees of its own (core.Stats.PathTreeNodes). Zero — an attempt served
	// by the shared tree store, or one that needed no tree — is not a
	// sample of MetricPathTreeNodes.
	PathTreeNodes int
}

// embedInstruments are one algorithm's RecordEmbed series, resolved once
// per alg label (see seriesMemo). The failure counter resolves lazily, on
// the first sample that needs it, so a scrape lists exactly the series it
// would without the memo.
type embedInstruments struct {
	alg                                         Label
	attempts, searchNodes, searches, candidates *Counter
	latency                                     *Histogram
	failures                                    atomic.Pointer[Counter]
	// layeredRuns is indexed by outcome: 0 exact, 1 fallback.
	layeredRuns    [2]atomic.Pointer[Counter]
	layeredSettled atomic.Pointer[Histogram]
	pathTreeNodes  atomic.Pointer[Histogram]
}

// seriesMemo caches resolved Default-registry series by label value, for
// the recorders that run on every request: going through the registry each
// time means canonicalising the label set, checking the buckets and taking
// the registry lock once per series. Label values are code constants, so
// the map stays small. The registry getters are idempotent, so two
// goroutines resolving the same key at once end up with the same series;
// either copy may win.
type seriesMemo[K comparable, M any] struct {
	mu sync.RWMutex
	m  map[K]*M
}

func (s *seriesMemo[K, M]) get(key K, resolve func(K) *M) *M {
	s.mu.RLock()
	h := s.m[key]
	s.mu.RUnlock()
	if h != nil {
		return h
	}
	h = resolve(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[K]*M)
	}
	s.m[key] = h
	s.mu.Unlock()
	return h
}

var embedInstr seriesMemo[string, embedInstruments]

func embedInstrumentsFor(alg string) *embedInstruments {
	return embedInstr.get(alg, func(alg string) *embedInstruments {
		r, l := Default(), L("alg", alg)
		return &embedInstruments{
			alg:      l,
			attempts: r.Counter(MetricEmbedAttempts, "Embedding attempts by algorithm.", l),
			latency: r.Histogram(MetricEmbedLatency, "Wall-clock seconds per embedding attempt.",
				DefLatencyBuckets(), l),
			searchNodes: r.Counter(MetricSearchNodes, "Search states explored (tree nodes, candidates examined, or proposals).", l),
			searches:    r.Counter(MetricSearches, "Searches run (FST/BST builds, Dijkstra calls, or tree builds).", l),
			candidates:  r.Counter(MetricCandidates, "Candidate sub-solutions generated.", l),
		}
	})
}

// RecordEmbed records one embedding attempt on the Default registry.
func RecordEmbed(s EmbedSample) {
	in := embedInstrumentsFor(s.Alg)
	in.attempts.Inc()
	if s.Failed {
		c := in.failures.Load()
		if c == nil {
			c = Default().Counter(MetricEmbedFailures, "Embedding attempts that found no feasible solution.", in.alg)
			in.failures.Store(c)
		}
		c.Inc()
	}
	in.latency.Observe(s.Elapsed.Seconds())
	in.searchNodes.Add(float64(s.SearchNodes))
	in.searches.Add(float64(s.Searches))
	in.candidates.Add(float64(s.Candidates))
	if s.PathTreeNodes > 0 {
		h := in.pathTreeNodes.Load()
		if h == nil {
			h = Default().Histogram(MetricPathTreeNodes,
				"Nodes settled per embedding attempt by the Dijkstra trees it grew on a view of its own.",
				ExpBuckets(16, 2, 12), in.alg)
			in.pathTreeNodes.Store(h)
		}
		h.Observe(float64(s.PathTreeNodes))
	}
}

// layeredOutcomes are the outcome label values of MetricLayeredRuns, in
// embedInstruments.layeredRuns order.
var layeredOutcomes = [2]string{"exact", "fallback"}

// RecordLayeredRun records one run of single-VNF layers an embedding
// attempt handed to the layered shortest-path kernel: whether the kernel's
// answer stood ("exact") or the per-layer search had to take the run over
// ("fallback"), and how many states the search settled. Like RecordEmbed
// it goes through handles memoised per alg label, so the steady state
// allocates nothing.
func RecordLayeredRun(alg string, fallback bool, settled int) {
	in := embedInstrumentsFor(alg)
	o := 0
	if fallback {
		o = 1
	}
	c := in.layeredRuns[o].Load()
	if c == nil {
		c = Default().Counter(MetricLayeredRuns,
			"Runs of single-VNF layers searched by the layered shortest-path kernel, by outcome.",
			in.alg, L("outcome", layeredOutcomes[o]))
		in.layeredRuns[o].Store(c)
	}
	c.Inc()
	h := in.layeredSettled.Load()
	if h == nil {
		h = Default().Histogram(MetricLayeredSettled,
			"States settled per layered shortest-path search.", ExpBuckets(16, 2, 12), in.alg)
		in.layeredSettled.Store(h)
	}
	h.Observe(float64(settled))
}

// RecordOnlineRequest's series: the outcome counters keyed by accepted, and
// the one latency histogram, each resolved on first use so a scrape lists
// an outcome only once it has happened.
var (
	onlineRequests seriesMemo[bool, Counter]
	onlineLatency  atomic.Pointer[Histogram]
)

// RecordOnlineRequest records one online-harness request on the Default
// registry: an accept/reject counter and an end-to-end latency histogram
// (embed plus commit).
func RecordOnlineRequest(accepted bool, elapsed time.Duration) {
	onlineRequests.get(accepted, func(accepted bool) *Counter {
		outcome := "rejected"
		if accepted {
			outcome = "accepted"
		}
		return Default().Counter(MetricOnlineRequests, "Online flow requests by outcome.", L("outcome", outcome))
	}).Inc()
	h := onlineLatency.Load()
	if h == nil {
		h = Default().Histogram(MetricOnlineLatency, "Wall-clock seconds per online request (embed + commit).",
			DefLatencyBuckets())
		onlineLatency.Store(h)
	}
	h.Observe(elapsed.Seconds())
}

// RecordOnlineCommitFailure records one commit that failed against the
// shared ledger after a successful speculative embed — a stale-snapshot
// conflict in the server, a defensive rejection in the offline harness.
func RecordOnlineCommitFailure() {
	Default().Counter(MetricOnlineCommitFailures,
		"Online commits rejected by the ledger after a successful embed.").Inc()
}

// Flight-recorder metric names (PR 6): per-stage pipeline latencies
// derived from journal event pairs — replacing the single whole-request
// histogram as the tuning signal — and the journal's self-accounting
// (ring overflow is counted, never silent).
const (
	MetricServerStageSeconds = "dagsfc_server_stage_seconds"
	MetricJournalEvents      = "dagsfc_journal_events_total"
	MetricJournalDropped     = "dagsfc_journal_dropped_total"
)

// The stage labels of MetricServerStageSeconds: time queued before a
// worker picked the request up, the speculative embed itself, the wait
// between embed completion and the serialized commit decision, and the
// span from fault-stranding to a repair's terminal outcome.
const (
	StageQueueWait  = "queue_wait"
	StageEmbed      = "embed"
	StageCommitWait = "commit_wait"
	StageRepair     = "repair"
	// StageFailover is the span from a fault hitting a protected flow's
	// primary to its backup being live as the new primary — the bounded
	// switch the protection layer exists to deliver (PR 10).
	StageFailover = "failover"
)

var stageInstr seriesMemo[string, Histogram]

// RecordServerStage records one pipeline-stage duration (the histogram
// behind the per-stage p50/p95/p99 table dagsfc-load prints).
func RecordServerStage(stage string, elapsed time.Duration) {
	stageInstr.get(stage, func(stage string) *Histogram {
		return Default().Histogram(MetricServerStageSeconds,
			"Serving-pipeline stage durations derived from journal event pairs.",
			DefLatencyBuckets(), L("stage", stage))
	}).Observe(elapsed.Seconds())
}

// Protection metric names (PR 10): the protected-embedding subsystem —
// how many flows currently hold a reserved backup, how many failovers and
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

const helpProtectUnprotectable = "Backup embed attempts refused unsearched: the endpoints are not 2-edge-connected."

// SetBackupsActive publishes the number of flows currently holding a
// reserved disjoint backup embedding.
func SetBackupsActive(n int) {
	Default().Gauge(MetricProtectBackupsActive, "Flows currently holding a reserved backup embedding.").Set(float64(n))
}

// RecordFailover records one backup promotion (fault killed the primary,
// the pre-reserved backup took over without a re-embed).
func RecordFailover() {
	Default().Counter(MetricProtectFailovers, "Backup embeddings promoted to primary after a fault.").Inc()
}

// RecordReprotect records the re-protect controller reserving a fresh
// backup for a flow that lost one.
func RecordReprotect() {
	Default().Counter(MetricProtectReprotects, "Fresh backup embeddings reserved by the re-protect controller.").Inc()
}

// RecordBackupAdmitFailure records a protected admission or re-protect
// attempt that found no disjoint backup placement; unprotectable marks the
// ones refused without a search because the endpoints are not
// 2-edge-connected, which are counted a second time under their own name.
func RecordBackupAdmitFailure(unprotectable bool) {
	Default().Counter(MetricProtectBackupAdmitFailure, "Backup embed attempts that found no disjoint placement.").Inc()
	if unprotectable {
		Default().Counter(MetricProtectUnprotectable, helpProtectUnprotectable).Inc()
	}
}

// InitProtectMetrics registers the protection counters at zero so scrapes
// see the family before the first protected flow arrives.
func InitProtectMetrics() {
	r := Default()
	r.Gauge(MetricProtectBackupsActive, "Flows currently holding a reserved backup embedding.").Set(0)
	r.Counter(MetricProtectFailovers, "Backup embeddings promoted to primary after a fault.").Add(0)
	r.Counter(MetricProtectReprotects, "Fresh backup embeddings reserved by the re-protect controller.").Add(0)
	r.Counter(MetricProtectBackupAdmitFailure, "Backup embed attempts that found no disjoint placement.").Add(0)
	r.Counter(MetricProtectUnprotectable, helpProtectUnprotectable).Add(0)
}

// RecordJournalAppend records one journal append and, when the ring
// evicted an old event to make room, the drop.
func RecordJournalAppend(dropped bool) {
	r := Default()
	r.Counter(MetricJournalEvents, "Lifecycle events appended to the flight-recorder journal.").Inc()
	if dropped {
		r.Counter(MetricJournalDropped, "Journal events evicted by ring overflow.").Inc()
	}
}

// Durability metric names (PR 8): the write-ahead log's append/fsync
// traffic, snapshot work, and how much recovery had to replay.
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

// RecordWALAppend records one record appended to the write-ahead log and
// its framed size in bytes.
func RecordWALAppend(bytes int) {
	r := Default()
	r.Counter(MetricWALAppends, "Records appended to the write-ahead log.").Inc()
	r.Counter(MetricWALBytes, "Framed bytes appended to the write-ahead log.").Add(float64(bytes))
}

// RecordWALFsync records one fsync of the active WAL segment.
func RecordWALFsync() {
	Default().Counter(MetricWALFsyncs, "fsyncs of the active WAL segment.").Inc()
}

// RecordWALSnapshot records one completed state snapshot: its payload
// size and how long the write (including the pre-snapshot sync) took.
func RecordWALSnapshot(bytes int, elapsed time.Duration) {
	r := Default()
	r.Gauge(MetricWALSnapshotBytes, "Payload size of the most recent WAL snapshot.").Set(float64(bytes))
	r.Histogram(MetricWALSnapshotSeconds, "Wall-clock seconds per WAL snapshot write.",
		DefLatencyBuckets()).Observe(elapsed.Seconds())
}

// RecordWALReplay records how many log records startup recovery replayed
// past the snapshot watermark.
func RecordWALReplay(n int) {
	Default().Counter(MetricWALReplayed, "WAL records replayed during startup recovery.").Add(float64(n))
}

// SetWALBroken publishes whether the server has latched a WAL failure and
// stopped writing records (1) or is logging normally (0).
func SetWALBroken(broken bool) {
	v := 0.0
	if broken {
		v = 1
	}
	Default().Gauge(MetricWALBroken, "1 while a WAL disk error has durability switched off.").Set(v)
}

// RecordWALError records one failed WAL append, fsync or snapshot.
func RecordWALError() {
	Default().Counter(MetricWALErrors, "WAL appends, fsyncs and snapshots that failed.").Inc()
}

// InitWALMetrics pre-creates the WAL counter families at zero so a
// freshly recovered (or fresh) server exposes them before traffic.
func InitWALMetrics() {
	r := Default()
	SetWALBroken(false)
	r.Counter(MetricWALErrors, "WAL appends, fsyncs and snapshots that failed.").Add(0)
	r.Counter(MetricWALAppends, "Records appended to the write-ahead log.").Add(0)
	r.Counter(MetricWALFsyncs, "fsyncs of the active WAL segment.").Add(0)
	r.Counter(MetricWALBytes, "Framed bytes appended to the write-ahead log.").Add(0)
	r.Counter(MetricWALReplayed, "WAL records replayed during startup recovery.").Add(0)
}

// routeOutcome keys the per-(route, outcome) request counters.
type routeOutcome struct{ route, outcome string }

var (
	requestInstr        seriesMemo[routeOutcome, Counter]
	requestLatencyInstr seriesMemo[string, Histogram]
)

// RecordServerRequest records one serving-layer request on the Default
// registry: a per-route/outcome counter and a per-route latency histogram.
func RecordServerRequest(route, outcome string, elapsed time.Duration) {
	requestInstr.get(routeOutcome{route, outcome}, func(k routeOutcome) *Counter {
		return Default().Counter(MetricServerRequests, "Serving-layer requests by route and outcome.",
			L("route", k.route), L("outcome", k.outcome))
	}).Inc()
	requestLatencyInstr.get(route, func(route string) *Histogram {
		return Default().Histogram(MetricServerLatency, "Wall-clock seconds per serving-layer request.",
			DefLatencyBuckets(), L("route", route))
	}).Observe(elapsed.Seconds())
}

// SetServerQueueDepth publishes the admission queue's current depth.
func SetServerQueueDepth(depth int) {
	Default().Gauge(MetricServerQueueDepth, "Flow requests waiting in the admission queue.").Set(float64(depth))
}

// SetServerActiveFlows publishes the number of committed, unreleased flows.
func SetServerActiveFlows(n int) {
	Default().Gauge(MetricServerActiveFlows, "Committed flows not yet released.").Set(float64(n))
}
