// Package server is the long-running embedding control plane: it owns one
// live network.Network plus capacity ledger and turns the repo's batch
// embedding stack into an online service. A flow arriving over HTTP (or
// in-process via Submit) is served start to finish on the goroutine that
// asked for it: it takes one of a bounded set of embed slots (waiting in a
// bounded queue when all are busy), embeds speculatively against the slot's
// private snapshot of the ledger — so searches run concurrently without
// locking the live state — and commits under the one mutex that serializes
// every ledger mutation. A commit that fails because a concurrent flow took
// the capacity (a stale snapshot) re-embeds once on the same slot.
// Committed flows live until released over DELETE or until their TTL
// fires on the server's timeline, the one goroutine that also runs fault
// repairs. Drain stops admission and waits for every in-flight request —
// the SIGTERM path of cmd/dagsfc-serve.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// Embedder is the serving-side embedding algorithm signature.
type Embedder func(p *core.Problem) (*core.Result, error)

// Config parameterizes a Server. Zero values take the documented
// defaults.
type Config struct {
	// Net is the network the server owns (required). The server holds the
	// only ledger over it; callers must not commit against it elsewhere.
	Net *network.Network
	// Seed seeds the randomized algorithm, ranv (default 1).
	Seed int64
	// Workers is the number of embed slots: how many speculative embeds
	// run at once, requests and repairs together (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the requests waiting for an embed slot; a request
	// arriving when that many wait is rejected with ErrQueueFull (default
	// 64).
	QueueDepth int
	// RequestTimeout bounds each request's end-to-end time; past it the
	// caller gets ErrTimeout and the request's result, if any, is discarded
	// uncommitted (default 30s). A request waiting for a slot, or inside
	// mbbe or bbe, answers at the deadline; one inside any other embedder
	// answers when that embedder returns.
	RequestTimeout time.Duration
	// RepairRetries is how many re-embed attempts a fault-stranded flow
	// gets before it is evicted (default 3). An attempt waits for an embed
	// slot as long as it takes, so every attempt counted ran an embed.
	RepairRetries int
	// RepairBackoff is the base delay before a repair's second and later
	// attempts; it doubles per attempt up to RepairBackoffCap, plus a
	// deterministic seeded jitter of up to half the delay (defaults 25ms
	// and 1s).
	RepairBackoff    time.Duration
	RepairBackoffCap time.Duration
	// BreakerFailures arms the admission circuit breaker: after this many
	// consecutive embed/commit failures the server sheds new flows with
	// ErrOverloaded (HTTP 503 + Retry-After) until BreakerCooldown passes
	// and a half-open probe succeeds. 0 leaves the breaker disabled.
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker stays open before it
	// lets a probe through (default 1s).
	BreakerCooldown time.Duration
	// JournalSize is the flight recorder's ring capacity: how many of the
	// most recent lifecycle events GET /v1/events and
	// GET /v1/flows/{id}/events can replay (default 4096). Overflow is
	// counted in dagsfc_journal_dropped_total, never silent.
	JournalSize int
	// Logger, when set, receives one structured record per journal event
	// with flow_id/attempt/type attributes — the log stream and the
	// journal are fed by the same hook, so they cannot disagree. Nil
	// disables logging (the journal still records).
	Logger *slog.Logger
	// Embedders adds or overrides named algorithms on top of the built-in
	// registry (mbbe, bbe, minv, ranv). An override of mbbe or bbe loses
	// what only core's tree searches have: see algorithm. An embedder runs
	// on the request's goroutine and is never interrupted: a request whose
	// deadline passes inside one answers ErrTimeout, uncommitted, when the
	// embedder returns.
	Embedders map[string]Embedder
	// WALDir enables durable flow state: every lifecycle mutation is
	// appended to a write-ahead log in this directory and the full state
	// is snapshotted periodically, so a restarted server recovers its flow
	// table, ledger residuals and fault quarantine exactly. New fails
	// (refuses to start) if the directory holds an unrecoverable log.
	// Empty disables durability entirely.
	WALDir string
	// WALSync is the fsync policy: "commit" (default; fsync before every
	// acknowledgment), "batch" (group-commit every 5ms) or "off" (OS
	// writeback only). Segments rotate past 4 MiB (the wal package's
	// defaults).
	WALSync string
	// WALSnapshotEvery writes a state snapshot after this many appended
	// records (default 1024); old segments covered by retained snapshots
	// are deleted. Negative disables periodic snapshots (a final snapshot
	// is still written on Drain).
	WALSnapshotEvery int
}

// Server is the live control plane. Create one with New, serve its
// Handler, and Drain it on shutdown.
type Server struct {
	cfg  Config
	net  *network.Network
	algs map[string]*algorithm
	// rules standardizes Chain requests into hybrid DAG-SFCs (unknown
	// categories stay sequential). Built once: it is read, never written.
	rules *sfc.RuleTable

	// mu guards state, the flow state machine (internal/flowstate): the
	// live capacity ledger, the one record per known flow, the active
	// faults. Every mutation is a flowstate.Transition applied under mu by
	// transitLocked — commits, the release paths, the fault endpoints and
	// the restore controller all go through it — and read endpoints take mu
	// to look; an embed only holds it long enough to copy the ledger's dense
	// rows into its slot's snapshot.
	mu    sync.Mutex
	state *flowstate.State
	// timeline runs the deferred work: TTL expiries and the restore
	// controller's queue (survive.go), one item at a time.
	timeline *timeline
	// revalHook, when set (tests only), runs once per candidate flow
	// during ApplyFault's unlocked revalidation phase — the contention
	// regression test parks it to prove a large fault scan no longer
	// stalls admissions or reads.
	revalHook func(id int64)
	// recycleHook, when set (tests only), runs whenever a slot is given
	// back, with the ledger snapshot its next holder will overwrite — the
	// recycling test scribbles over it to prove nothing the job left behind
	// still reads it.
	recycleHook func(*network.Ledger)

	// Durability (internal/server/durable.go). wal is nil when disabled;
	// walAppends counts records since the last snapshot (the periodic
	// snapshot trigger); walBroken latches a disk error — the server keeps
	// serving from memory but stops appending, and says so on /healthz.
	// walEnc frames transitions into records through one reused buffer,
	// under mu.
	wal        *wal.Log
	walAppends atomic.Int64
	walBroken  atomic.Bool
	walEnc     flowstate.Encoder

	// nextID allocates flow IDs at admission, lock-free; the state keeps
	// the durable high-water mark (every admitted ID is an Admit
	// transition) and recovery resumes the allocator from it.
	nextID atomic.Int64

	// journal is the flight recorder: every decision point below appends
	// one typed event, so a flow's whole lifecycle can be replayed after
	// the fact. Flow IDs are allocated at admission (not commit), so even
	// a rejected or conflicted request has a complete enqueue→terminal
	// timeline under its ID.
	journal *journal.Journal

	brk breaker

	// drainMu serializes admission against the start of a drain: Submit and
	// the restore controller hold it shared while entering, Drain holds it
	// exclusively while flipping draining, so nothing enters after Drain
	// began to wait.
	drainMu  sync.RWMutex
	draining bool

	// slots are the Workers embed slots. A request or a restore attempt
	// holds one from its first embed to its commit, so at most Workers
	// embeds run at once, and each reuses its slot's snapshot and ban sets.
	slots chan *workerScratch
	// waiting counts the admitted requests that hold no slot yet; it is
	// what QueueDepth bounds.
	waiting  atomic.Int64
	inflight sync.WaitGroup // admitted requests and restore attempts not yet answered
	stopOnce sync.Once
}

// job is one flow request or restore attempt, owned by the goroutine that
// serves it.
type job struct {
	// ctx is the job's context, by value: what the searches poll.
	ctx deadline
	id  int64 // flow ID, allocated at admission
	prepared
	retries int
	res     *core.Result
	// cost is the objective of res.Solution, settled off the lock with its
	// structure; the commit prices the placement again to reserve it.
	cost core.Cost
	// embedDone starts the commit wait the commit reports.
	embedDone time.Time
	// repair marks a job issued by the restore controller for a flow that
	// already has an identity: speculate reads off the flow's record which
	// search it needs, and the commit re-registers the flow under its
	// original ID or arms its backup. need is what the controller found the
	// flow lacking when it issued the job.
	repair *repairTask
	need   flowstate.Need
	// backup is the disjoint second embedding of a protected admission
	// (req.Protection == ProtectionBackup), searched on the same snapshot as
	// the primary with the primary's capacity already reserved; the commit
	// reserves both or neither.
	backup *core.Result
	// against marks a restore job that embeds only a backup (res is then
	// that backup): it is the live primary the ban sets were derived from,
	// and the commit refuses the backup if the primary moved in between.
	against *core.Solution
}

// deadline is the submitter's context cut off at a fixed time, as a plain
// value a job carries inside itself instead of a context.WithTimeout child
// (a timerCtx, its parent's child map, an AfterFunc closure and a lazily
// made Done channel per request). Err reports the parent's error, or
// DeadlineExceeded once past the time, which is all the builtin tree
// searches ask of their context: they poll Err between steps. Done is the
// parent's and does not close at the deadline — nothing may block on it, so
// only core's tree searches are ever handed one: plain wraps every other
// embedder so that it never sees it. The waiting side of the deadline is
// the timer waitSlot takes from timers.
type deadline struct {
	context.Context
	at time.Time
}

func (d *deadline) Deadline() (time.Time, bool) {
	if at, ok := d.Context.Deadline(); ok && at.Before(d.at) {
		return at, true
	}
	return d.at, true
}

func (d *deadline) Err() error {
	if err := d.Context.Err(); err != nil {
		return err
	}
	if !time.Now().Before(d.at) {
		return context.DeadlineExceeded
	}
	return nil
}

// jobResult is a job's outcome. ticket is the WAL record that makes an
// accepted outcome durable; the caller waits on it before acknowledging.
type jobResult struct {
	info   FlowInfo
	err    error
	ticket uint64
}

// New validates the configuration, fills the embed slots and starts the
// one goroutine a server runs beside its callers': the timeline's.
func New(cfg Config) (*Server, error) {
	if cfg.Net == nil {
		return nil, fmt.Errorf("server: Config.Net is required")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	if cfg.RepairRetries <= 0 {
		cfg.RepairRetries = 3
	}
	if cfg.RepairBackoff <= 0 {
		cfg.RepairBackoff = 25 * time.Millisecond
	}
	if cfg.RepairBackoffCap <= 0 {
		cfg.RepairBackoffCap = time.Second
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = time.Second
	}
	if cfg.JournalSize <= 0 {
		cfg.JournalSize = 4096
	}
	if cfg.WALSnapshotEvery == 0 {
		cfg.WALSnapshotEvery = 1024
	}
	telemetry.InitPathCacheMetrics()
	telemetry.InitCostViewMetrics()
	telemetry.InitProtectMetrics()
	s := &Server{
		cfg:     cfg,
		net:     cfg.Net,
		algs:    builtinAlgorithms(cfg.Seed),
		rules:   sfc.StockRules(),
		state:   flowstate.New(cfg.Net),
		slots:   make(chan *workerScratch, cfg.Workers),
		journal: journal.New(cfg.JournalSize, cfg.Logger),
		brk:     breaker{threshold: cfg.BreakerFailures, cooldown: cfg.BreakerCooldown},
	}
	// An armed breaker publishes its closed state before the hook that
	// journals every later transition is set; the hook is safe because the
	// journal never calls back into the breaker.
	if cfg.BreakerFailures > 0 {
		s.brk.transition(0)
	}
	s.brk.onTransition = func(state string) {
		s.journal.Append(journal.Event{Type: journal.TypeBreaker, Detail: state})
	}
	for name, e := range cfg.Embedders {
		s.algs[name] = foreign(name, e)
	}
	// Durable state: open (or create) the WAL and rebuild the flow table,
	// ledger and fault quarantine from it before any traffic can race the
	// replay. An unrecoverable directory refuses to start — serving from a
	// silently empty state would strand every recorded flow.
	var recovered *recoveredState
	if cfg.WALDir != "" {
		policy, err := wal.ParseSyncPolicy(cfg.WALSync)
		if err != nil {
			return nil, fmt.Errorf("server: %v", err)
		}
		wlog, rec, err := wal.Open(cfg.WALDir, wal.Options{Sync: policy})
		if err != nil {
			return nil, fmt.Errorf("server: cannot start on WAL dir %s: %w", cfg.WALDir, err)
		}
		s.wal = wlog
		if recovered, err = s.recover(rec); err != nil {
			wlog.Close()
			return nil, fmt.Errorf("server: cannot start on WAL dir %s: %w", cfg.WALDir, err)
		}
		telemetry.InitWALMetrics()
	}
	for i := 0; i < cfg.Workers; i++ {
		s.slots <- &workerScratch{banEdges: map[graph.EdgeID]bool{}, banNodes: map[graph.NodeID]bool{}}
	}
	// Seeded jitter: two same-seed chaos runs back off identically.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x7265706169727321)) // "repairs!"
	s.timeline = newTimeline(func(id int64) { _, _ = s.release(id, flowstate.Expire) },
		func(t *repairTask) time.Time { return s.restoreOne(t, rng) })
	if recovered != nil {
		s.finishRecovery(recovered)
	}
	// The initial publish: the queue-depth gauge is listed, never reset —
	// only waiting requests move it — and the flow-state gauges read the
	// recovered state, as transitLocked keeps them from here on.
	telemetry.AddServerQueueDepth(0)
	s.mu.Lock()
	faults, _, _ := s.state.Faults()
	telemetry.SetFlowState(s.state.Active(), s.state.Backups(), len(faults))
	s.mu.Unlock()
	return s, nil
}

// Serving constants: what a request does not name itself.
const (
	// defaultAlgorithm embeds a request that names no alg.
	defaultAlgorithm = "mbbe"
	// commitRetries is how many times a flow whose commit conflicted is
	// re-embedded, on the slot it holds, before ErrCommitConflict.
	commitRetries = 1
)

// algorithm is one entry of the server's registry. embed runs it on a
// slot's problem under the job's deadline and returns a placement whose
// structure was checked and whose Cost is its price. opts is non-nil
// exactly for core's tree searches (mbbe, bbe), and everything only they
// offer reads it: they take ban sets, so they alone may compute a backup
// and admit a protected flow; and they poll the deadline, so a timed-out
// request stops searching and answers instead of holding its slot.
type algorithm struct {
	embed func(context.Context, *core.Problem) (*core.Result, error)
	opts  *core.Options
}

// treeSearch registers one of core's tree searches under opts. The backup
// search copies *opts per request to add ban sets, so opts is never
// written after New.
func treeSearch(opts core.Options) *algorithm {
	return &algorithm{opts: &opts, embed: func(ctx context.Context, p *core.Problem) (*core.Result, error) {
		return core.EmbedContext(ctx, p, opts)
	}}
}

// plain registers an embedder that is not one of core's tree searches. It
// never receives the job's deadline (see deadline).
func plain(e Embedder) *algorithm {
	return &algorithm{embed: func(_ context.Context, p *core.Problem) (*core.Result, error) { return e(p) }}
}

// foreign registers Config.Embedders entry name. The builtin baselines end
// with core.Price; an embedder from outside is checked for structure and
// priced here, on the request's slot and off the lock, so a malformed
// placement answers ErrInternal instead of being taken for a capacity
// conflict at the commit.
func foreign(name string, e Embedder) *algorithm {
	return plain(func(p *core.Problem) (*core.Result, error) {
		res, err := e(p)
		if err != nil {
			return res, err
		}
		cost, err := core.Evaluate(p, res.Solution)
		if err != nil {
			return nil, fmt.Errorf("%w: embedder %q returned an invalid placement: %v", ErrInternal, name, err)
		}
		priced := *res
		priced.Cost = cost
		return &priced, nil
	})
}

// builtinAlgorithms is the default registry. ranv draws from one seeded rng
// behind a lock, so its embeds serialize — acceptable for a baseline.
// Config.Embedders registers any other embedder where it is wanted.
func builtinAlgorithms(seed int64) map[string]*algorithm {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return map[string]*algorithm{
		"mbbe": treeSearch(core.MBBEOptions()),
		"bbe":  treeSearch(core.BBEOptions()),
		"minv": plain(baseline.EmbedMINV),
		"ranv": plain(func(p *core.Problem) (*core.Result, error) {
			mu.Lock()
			defer mu.Unlock()
			return baseline.EmbedRANV(p, rng)
		}),
	}
}

// prepared is a wire request validated and resolved: all a job keeps of
// it. problem is the instance the request describes, without a ledger —
// speculate binds a copy to its slot's snapshot, and the commit hands this
// one to the flow state.
type prepared struct {
	problem *core.Problem
	alg     string
	algo    *algorithm
	ttl     time.Duration
	protect bool // protection class "backup"
}

// maxTTLSeconds is the longest ttl_seconds a time.Duration can hold.
const maxTTLSeconds = float64(math.MaxInt64 / int64(time.Second))

// prepare validates a wire request and resolves what it names. Nothing in
// the result refers to req's Chain.
func (s *Server) prepare(req FlowRequest) (prepared, error) {
	var dag sfc.DAGSFC
	switch {
	case req.SFC != "" && len(req.Chain) > 0:
		return prepared{}, fmt.Errorf("%w: set sfc or chain, not both", ErrBadRequest)
	case req.SFC != "":
		parsed, err := sfc.Parse(req.SFC)
		if err != nil {
			return prepared{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		dag = parsed
	case len(req.Chain) > 0:
		// A negative width would reach ChainToDAG as "no cap at all".
		if req.MaxWidth < 0 {
			return prepared{}, fmt.Errorf("%w: negative max_width", ErrBadRequest)
		}
		width := req.MaxWidth
		if width == 0 {
			width = 3
		}
		// ChainToDAG copies the chain, so the converted one can stay on the
		// stack for any chain of ordinary length.
		var stack [16]network.VNFID
		chain := stack[:0]
		for _, id := range req.Chain {
			chain = append(chain, network.VNFID(id))
		}
		dag = sfc.ChainToDAG(chain, s.rules, width)
	}
	// A blank sfc parses to no layers at all: a flow with no VNFs.
	if dag.Omega() == 0 {
		return prepared{}, fmt.Errorf("%w: one of sfc or chain is required", ErrBadRequest)
	}
	// Past maxTTLSeconds the conversion below overflows to a negative
	// duration, and the flow would silently never expire.
	if req.TTLSeconds < 0 || req.TTLSeconds > maxTTLSeconds || math.IsNaN(req.TTLSeconds) {
		return prepared{}, fmt.Errorf("%w: ttl_seconds must be between 0 and %g", ErrBadRequest, maxTTLSeconds)
	}
	pr := prepared{alg: req.Alg}
	if pr.alg == "" {
		pr.alg = defaultAlgorithm
	}
	if pr.algo = s.algs[pr.alg]; pr.algo == nil {
		return prepared{}, fmt.Errorf("%w: unknown algorithm %q", ErrBadRequest, pr.alg)
	}
	switch req.Protection {
	case "", ProtectionNone:
	case ProtectionBackup:
		if pr.algo.opts == nil {
			return prepared{}, fmt.Errorf("%w: protection %q requires a ban-capable algorithm (mbbe, bbe), got %q",
				ErrBadRequest, req.Protection, pr.alg)
		}
		pr.protect = true
	default:
		return prepared{}, fmt.Errorf("%w: unknown protection class %q", ErrBadRequest, req.Protection)
	}
	// The rate goes on the grid here, where it enters: the flow records
	// and echoes the rounded rate, and every reservation it makes is exact.
	pr.problem = &core.Problem{
		Net: s.net, SFC: dag,
		Src: graph.NodeID(req.Src), Dst: graph.NodeID(req.Dst),
		Rate: graph.ToGrid(req.Rate), Size: req.Size,
	}
	if err := pr.problem.Validate(); err != nil {
		return prepared{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	if req.TTLSeconds > 0 {
		pr.ttl = time.Duration(req.TTLSeconds * float64(time.Second))
	}
	return pr, nil
}

// Submit serves one flow request on the caller's goroutine: admission, a
// speculative embed on a ledger snapshot, and a serialized commit (serve).
// It returns once the flow is committed or rejected, or once the
// per-request deadline (the tighter of ctx and Config.RequestTimeout) has
// passed — at the deadline while the request waits for a slot or searches
// with mbbe or bbe, when the embedder returns inside any other.
func (s *Server) Submit(ctx context.Context, req FlowRequest) (FlowInfo, error) {
	begin := time.Now()
	pr, err := s.prepare(req)
	if err != nil {
		telemetry.RecordServerRequest("flows.create", "invalid", time.Since(begin))
		return FlowInfo{}, err
	}
	// probe marks this request as the breaker's single half-open probe.
	// Every exit below that ends the request before an embed decision must
	// give the slot back with abortProbe, or the breaker would stay
	// half-open with the slot taken forever, shedding everything.
	now := time.Now()
	probe, err := s.brk.allow(now)
	if err != nil {
		telemetry.RecordServerRequest("flows.create", "shed", time.Since(begin))
		return FlowInfo{}, err
	}
	// The flow's ID is allocated here, at admission, not at commit: a
	// rejected or conflicted request still has an identity the journal can
	// hang its enqueue→terminal timeline on.
	j := &job{
		ctx: deadline{Context: ctx, at: now.Add(s.cfg.RequestTimeout)},
		id:  s.nextID.Add(1), prepared: pr,
	}
	if err := s.enter(j); err != nil {
		outcome := "overflow"
		if errors.Is(err, ErrDraining) {
			outcome = "draining"
		}
		s.reject(j, probe, outcome, err, begin)
		return FlowInfo{}, err
	}
	defer s.inflight.Done()
	// Persist the ID high-water mark so a recovered server never re-issues
	// this ID, even if this request ends up rejected. An acceptance never
	// waits on this ticket (its commit record comes later in the same log,
	// so that record's fsync covers it); a rejection does, before it
	// answers.
	s.mu.Lock()
	_, admitted, _ := s.transitLocked(flowstate.Transition{Kind: flowstate.Admit, Flow: j.id})
	s.mu.Unlock()

	r := s.serve(j)
	if errors.Is(r.err, ErrTimeout) {
		s.walWait(admitted)
		s.reject(j, probe, "timeout", r.err, begin)
		return FlowInfo{}, fmt.Errorf("%w after %v", ErrTimeout, time.Since(begin).Round(time.Millisecond))
	}
	// The response parks on a flush ticket: an acceptance waits for its
	// commit record — the admit record precedes it in the log, so the same
	// fsync covers both — and anything else for the admit record alone.
	s.walWait(max(r.ticket, admitted))
	s.recordDecision(j, r.err, probe, begin)
	return r.info, r.err
}

// enter admits j — a request or a restore attempt — into the in-flight set
// that Drain waits for, or says why not: ErrDraining, or, for a request,
// ErrQueueFull when QueueDepth requests already wait for a slot. A request
// journals its enqueue here; a restore attempt waits for a slot however
// many requests do, and its repair_attempt event stands for the enqueue.
func (s *Server) enter(j *job) error {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if j.repair == nil {
		// A free slot is no wait: requests about to take one do not count
		// against the depth.
		if s.waiting.Add(1) > int64(s.cfg.QueueDepth+len(s.slots)) {
			s.waiting.Add(-1)
			return ErrQueueFull
		}
		telemetry.AddServerQueueDepth(1)
		s.journal.Append(journal.Event{Type: journal.TypeEnqueue, Flow: j.id, Alg: j.alg})
	}
	// Add under the read lock: Drain sets draining under the write lock
	// before waiting on inflight, so this Add happens-before that Wait.
	s.inflight.Add(1)
	return nil
}

// reject answers a request refused before any embed decision — at
// admission, or at its deadline: it gives the probe slot back, journals the
// rejection and records the outcome.
func (s *Server) reject(j *job, probe bool, outcome string, err error, begin time.Time) {
	if probe {
		s.brk.abortProbe()
	}
	s.journal.Append(journal.Event{Type: journal.TypeRejected, Flow: j.id, Alg: j.alg, Attempt: j.retries, Err: err.Error()})
	telemetry.RecordServerRequest("flows.create", outcome, time.Since(begin))
}

// recordDecision records a completed embed decision under the
// flows.create route, journals the terminal rejection if serve failed the
// request, and feeds the circuit breaker. Only embed and commit outcomes
// reach here — admission-level rejections (queue full, draining, shed)
// and timeouts say nothing about the substrate's health. probe is passed
// through so the breaker knows whether this decision is the half-open
// probe's verdict.
func (s *Server) recordDecision(j *job, err error, probe bool, begin time.Time) {
	elapsed := time.Since(begin)
	if err != nil {
		s.journal.Append(journal.Event{
			Type: journal.TypeRejected, Flow: j.id, Alg: j.alg,
			Attempt: j.retries, Err: err.Error(),
		})
	}
	outcome, verdict := "error", true
	switch {
	case err == nil:
		outcome = "accepted"
	case errors.Is(err, ErrCommitConflict):
		outcome = "conflict"
	case errors.Is(err, core.ErrNoEmbedding):
		outcome = "no_embedding"
	case errors.Is(err, ErrInternal):
	default:
		// An outcome that is not a health verdict (a request the search
		// itself refused as malformed). If this request held the probe
		// slot, return it — no verdict was reached.
		verdict = false
		if probe {
			s.brk.abortProbe()
		}
	}
	telemetry.RecordServerRequest("flows.create", outcome, elapsed)
	if verdict {
		s.brk.record(err == nil, probe, time.Now())
	}
}

// workerScratch is one embed slot: what an embed needs per job and keeps
// between jobs — its snapshot of the ledger, rewritten in place, and the
// one problem bound to it. It may, because nothing a job leaves behind
// points at either — a core.Result is solution, cost and stats, the
// commit's transition carries the job's own ledger-free problem, and a
// shared cost view is a copy of the residuals it was compiled from.
type workerScratch struct {
	snap *network.Ledger
	p    core.Problem
	// bfs and edgeRes serve embedBackup's connectivity test, banEdges and
	// banNodes its ban sets.
	bfs      graph.Scratch
	edgeRes  []float64
	banEdges map[graph.EdgeID]bool
	banNodes map[graph.NodeID]bool
}

// serve is the one path from admission to outcome, for Submit's requests
// and the restore controller's attempts alike, run by the goroutine that
// owns j: take an embed slot, embed on a snapshot of the live ledger,
// commit under s.mu, give the slot back. A candidate that no longer fits
// the live ledger (a stale snapshot) re-embeds on the same slot, up to
// commitRetries times. A job past its deadline, or whose caller gave up,
// answers ErrTimeout and commits nothing.
func (s *Server) serve(j *job) jobResult {
	w, err := s.take(j)
	if err != nil {
		return jobResult{err: err}
	}
	defer s.put(w)
	for {
		err := s.speculate(j, w)
		if j.ctx.Err() != nil {
			return jobResult{err: ErrTimeout}
		}
		if err != nil {
			return jobResult{err: err}
		}
		r, conflict := s.commit(j)
		if !conflict || j.retries == commitRetries {
			return r
		}
		j.retries++
		j.res, j.cost, j.backup, j.against = nil, core.Cost{}, nil, nil
	}
}

// timers recycles the one timer a request waiting for a slot needs. A
// timer in the pool is stopped and its channel empty.
var timers sync.Pool

// take hands j an embed slot, waiting for one when none is free, and
// journals the dequeue with the wait. A request waits until its deadline
// passes or its caller gives up, then answers ErrTimeout; a restore attempt
// waits as long as it takes, and its deadline starts once it holds the
// slot.
func (s *Server) take(j *job) (*workerScratch, error) {
	begin := time.Now()
	var w *workerScratch
	select {
	case w = <-s.slots:
	default:
		w = s.waitSlot(j)
	}
	now := time.Now()
	if j.repair == nil {
		s.waiting.Add(-1)
		telemetry.AddServerQueueDepth(-1)
	} else {
		j.ctx.at = now.Add(s.cfg.RequestTimeout)
	}
	if w == nil {
		return nil, ErrTimeout
	}
	wait := now.Sub(begin)
	s.journal.Append(journal.Event{Time: now, Type: journal.TypeDequeue, Flow: j.id, Seconds: wait.Seconds()})
	telemetry.RecordServerStage(telemetry.StageQueueWait, wait)
	return w, nil
}

// waitSlot blocks until a slot is free, or — for a request — until j's
// deadline passes or its caller gives up, and then returns nil.
func (s *Server) waitSlot(j *job) *workerScratch {
	if j.repair != nil {
		return <-s.slots
	}
	wait := time.Until(j.ctx.at)
	t, _ := timers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(wait)
	} else {
		t.Reset(wait)
	}
	var w *workerScratch
	fired := false
	select {
	case w = <-s.slots:
	case <-j.ctx.Done():
	case <-t.C:
		fired = true
	}
	// Stop reports false for a timer that already went off; its value is
	// then in the channel, or about to be, unless this select took it.
	if !t.Stop() && !fired {
		<-t.C
	}
	timers.Put(t)
	return w
}

// put gives a slot back.
func (s *Server) put(w *workerScratch) {
	if s.recycleHook != nil && w.snap != nil {
		s.recycleHook(w.snap)
	}
	s.slots <- w
}

// speculate runs one job's searches on its slot: it snapshots the live
// ledger, then searches the snapshot without holding any lock. Which search
// runs is read off what the flow lacks: a new flow or a stranded one lacks
// a primary; a live protected flow whose backup was promoted or lost lacks
// a backup.
func (s *Server) speculate(j *job, w *workerScratch) error {
	// One lock hold reads everything the embed depends on, so a backup's
	// ban sets and the snapshot carrying the primary's reservations
	// describe the same moment.
	detail := ""
	s.mu.Lock()
	w.snap = s.state.SnapshotInto(w.snap)
	need, _ := s.state.Lacks(j.id)
	if need == flowstate.NeedBackup {
		pl, _ := s.state.Placement(j.id)
		j.against, detail = pl.Primary, "re-protect"
	}
	s.mu.Unlock()
	if need != j.need { // a new flow has no record and needs nothing restored
		// Released, restored by another hand or re-stranded by a newer
		// fault since the controller looked.
		return fmt.Errorf("%w: flow %d no longer needs this restore", ErrNotFound, j.id)
	}
	w.p = *j.problem
	w.p.Ledger = w.snap
	p := &w.p
	res, err := s.search(j, w, j.against, detail)
	j.embedDone = time.Now()
	if err != nil {
		return err
	}
	j.res, j.cost = res, res.Cost
	if j.repair == nil && j.protect {
		// Protected admission: reserve the primary on the private
		// snapshot, then search for a disjoint backup against what
		// remains. Failure is terminal — no backup, no admission.
		if _, err := core.Commit(p, res.Solution); err != nil {
			// The primary came out of this very snapshot; failing to
			// reserve it there is a server bug, not a capacity race.
			return fmt.Errorf("%w: backup pre-reserve: %v", ErrInternal, err)
		}
		if j.backup, err = s.search(j, w, res.Solution, "backup"); err != nil {
			return err
		}
	}
	return nil
}

// search runs one speculative embed for j on the slot's problem and
// ledger and journals it under detail: the job's own algorithm when against
// is nil, otherwise the ban-seeded search for a backup disjoint from
// against ("backup" for the second embed of a protected admission,
// "re-protect" for a live flow that lost or spent its backup) — the ledger
// must then already carry against's reservations. A backup refused because
// no algorithm could find one says so in the done event's detail
// ("backup: unprotectable").
func (s *Server) search(j *job, w *workerScratch, against *core.Solution, detail string) (res *core.Result, err error) {
	begin := time.Now()
	if against == nil {
		res, err = s.runEmbed(j, &w.p)
	} else {
		res, err = s.embedBackup(j, w, against)
	}
	done := time.Now()
	telemetry.RecordServerStage(telemetry.StageEmbed, done.Sub(begin))
	ev := journal.Event{
		Time: done, Type: journal.TypeEmbedDone, Flow: j.id, Alg: j.alg, Attempt: j.retries,
		Seconds: done.Sub(begin).Seconds(), Workers: s.cfg.Workers, Detail: detail,
	}
	switch {
	case err == nil:
		ev.Cost, ev.Nodes = res.Cost.Total(), res.Stats.TreeNodes
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The ctx-aware search stopped cooperatively; report it as the
		// timeout it is, not an embedding failure.
		err = fmt.Errorf("%w: embed cancelled: %v", ErrTimeout, err)
	case errors.Is(err, errUnprotectable):
		ev.Detail += ": unprotectable"
		telemetry.RecordBackupAdmitFailure(true)
	case errors.Is(err, ErrBadRequest):
		// The request's own fault, not the substrate's.
	case against != nil:
		err = fmt.Errorf("no disjoint backup placement: %w", err)
		telemetry.RecordBackupAdmitFailure(false)
	}
	if err != nil {
		ev.Err = err.Error()
	}
	s.journal.Append(ev)
	return res, err
}

// runEmbed executes the job's algorithm and converts a panicking embedder
// into a failed request — the slot (and the process) survives.
func (s *Server) runEmbed(j *job, p *core.Problem) (res *core.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			telemetry.RecordWorkerPanic()
			res, err = nil, fmt.Errorf("%w: embedder panicked: %v", ErrInternal, r)
		}
	}()
	return j.algo.embed(&j.ctx, p)
}

// transition turns a job's embedding into the state change that commits
// it: a backup for a live flow that lacks one, otherwise the flow itself —
// new, or (Repair) re-registered under its original identity. detail
// labels a conflict's journal event.
func (s *Server) transition(j *job) (t flowstate.Transition, detail string) {
	if j.against != nil {
		return flowstate.Transition{
			Kind: flowstate.Backup, Flow: j.id, Primary: j.against, Backup: j.res.Solution,
			Info: FlowInfo{BackupCost: flowstate.CostOf(j.cost)},
		}, "re-protect"
	}
	t = flowstate.Transition{
		Kind: flowstate.Commit, Flow: j.id, Repair: j.repair != nil,
		Problem: j.problem, Primary: j.res.Solution,
		Info: FlowInfo{
			ID: j.id, SFC: sfc.Format(j.problem.SFC),
			Src: int(j.problem.Src), Dst: int(j.problem.Dst), Rate: j.problem.Rate, Size: j.problem.Size,
			Alg: j.alg, Cost: flowstate.CostOf(j.cost),
			Created: time.Now(), State: FlowStateActive,
		},
	}
	if j.ttl > 0 {
		at := t.Info.Created.Add(j.ttl)
		t.Info.ExpiresAt = &at
	}
	if j.backup != nil {
		t.Backup = j.backup.Solution
		t.Info.Protection, t.Info.BackupActive = ProtectionBackup, true
		t.Info.BackupCost = flowstate.CostOf(j.backup.Cost)
	}
	return t, ""
}

// commit turns j's candidate into a ledger reservation under s.mu. The
// placement's structure was validated off the lock, in full, by whoever
// produced j.cost; what is left to decide is whether it still fits the live
// ledger (eqs. 2–3) and whether the flow is still waiting for it, and
// flowstate.Apply decides both, pricing the placement again to reserve it,
// as replay does. A candidate that no longer fits — its snapshot is stale,
// by commits or faults since — is a conflict: commit journals it and
// reports it, and serve decides whether to re-embed.
func (s *Server) commit(j *job) (r jobResult, conflict bool) {
	t, detail := s.transition(j)
	// The record is framed under the lock, so the log keeps the ledger's
	// mutation order; it reaches stable storage (per the sync policy) when
	// the caller waits on the ticket, before it answers.
	s.mu.Lock()
	ch, ticket, err := s.transitLocked(t)
	s.mu.Unlock()
	if errors.Is(err, flowstate.ErrStale) {
		// Released, or restored already, while the embed ran.
		return jobResult{err: fmt.Errorf("%w: %v", ErrNotFound, err)}, false
	}
	if err != nil {
		telemetry.RecordCommitConflict()
		s.journal.Append(journal.Event{
			Type: journal.TypeCommitConflict, Flow: j.id, Attempt: j.retries,
			Detail: detail, Err: err.Error(),
		})
		return jobResult{err: fmt.Errorf("%w: %v", ErrCommitConflict, err)}, true
	}
	now := time.Now()
	took := now.Sub(j.embedDone) // commit wait
	if t.Kind == flowstate.Backup {
		took = now.Sub(j.repair.strandedAt)
	}
	s.emit(t, ch, journal.Event{Time: now, Attempt: j.retries}, took)
	if t.Kind == flowstate.Commit && ch.Info.ExpiresAt != nil {
		s.timeline.Schedule(j.id, *ch.Info.ExpiresAt)
	}
	return jobResult{info: ch.Info, ticket: ticket}, false
}

// emit publishes an applied transition: the one journal event that reports
// it, named by its kind, and the counters it moves. ev carries what only
// the caller knows (Time, Attempt, Err); took is the duration the event
// reports, for the kinds that report one. Every kind but Admit, whose
// journal face is the enqueue, comes through here.
func (s *Server) emit(t flowstate.Transition, ch flowstate.Change, ev journal.Event, took time.Duration) {
	ev.Type, ev.Flow = journal.Type(t.Kind.String()), t.Flow
	switch t.Kind {
	case flowstate.Commit:
		ev.Alg, ev.Cost, ev.Seconds = ch.Info.Alg, ch.Info.Cost.Total, took.Seconds()
		if t.Repair {
			ev.Detail = "repair"
		} else if t.Backup != nil {
			ev.Detail = "protected"
		}
		telemetry.RecordServerStage(telemetry.StageCommitWait, took)
	case flowstate.Backup:
		ev.Alg, ev.Cost, ev.Seconds = ch.Info.Alg, ch.Info.BackupCost.Total, took.Seconds()
		telemetry.RecordReprotect()
	case flowstate.Release, flowstate.Expire:
		if t.Kind == flowstate.Expire {
			telemetry.RecordServerRequest("flows.expire", "ok", 0)
		}
		// A flow can be known without holding resources: mid-repair, or an
		// evicted tombstone. Deleting it cancels the repair or acknowledges
		// the eviction.
		if ch.Info.State == FlowStateActive {
			ev.Cost = ch.Info.Cost.Total
		} else {
			ev.Detail = "state " + ch.Info.State
		}
	case flowstate.FaultApply, flowstate.FaultRestore, flowstate.Strand, flowstate.BackupLoss:
		ev.Detail = t.Fault.String()
	case flowstate.Revalidate:
		ev.Detail = t.Fault.String()
		telemetry.RecordRepair("revalidated")
	case flowstate.Failover:
		ev.Detail, ev.Cost, ev.Seconds = t.Fault.String(), ch.Info.Cost.Total, took.Seconds()
		telemetry.RecordServerStage(telemetry.StageFailover, took)
		telemetry.RecordFailover()
	case flowstate.Evict:
		ev.Detail, ev.Seconds = t.Fault.String(), took.Seconds()
		if t.Cause != "" {
			ev.Detail += " (" + t.Cause + ")"
		}
		telemetry.RecordServerStage(telemetry.StageRepair, took)
		telemetry.RecordRepair("evicted")
	}
	s.journal.Append(ev)
}

// Release returns a committed flow's capacity to the ledger (DELETE
// /v1/flows/{id}); ErrNotFound if the flow is unknown or already gone.
func (s *Server) Release(id int64) (FlowInfo, error) {
	begin := time.Now()
	info, ok := s.release(id, flowstate.Release)
	if !ok {
		telemetry.RecordServerRequest("flows.release", "not_found", time.Since(begin))
		return FlowInfo{}, fmt.Errorf("%w: flow %d", ErrNotFound, id)
	}
	telemetry.RecordServerRequest("flows.release", "ok", time.Since(begin))
	return info, nil
}

// release forgets a flow (kind is flowstate.Release or Expire) and returns
// whatever it held to the ledger; a repair or re-protect in flight for it
// finds its record gone and stands down.
func (s *Server) release(id int64, kind flowstate.Kind) (FlowInfo, bool) {
	t := flowstate.Transition{Kind: kind, Flow: id}
	s.mu.Lock()
	ch, ticket, err := s.transitLocked(t)
	s.mu.Unlock()
	if err != nil {
		return FlowInfo{}, false
	}
	// A DELETE is acknowledged to its caller, so it waits for its record; a
	// TTL expiry answers to nobody — its record rides along with the next
	// fsync, and if a crash beats that fsync, recovery finds the flow past
	// its deadline and expires it again.
	if kind == flowstate.Release {
		s.walWait(ticket)
	}
	s.timeline.Cancel(id)
	s.emit(t, ch, journal.Event{}, 0)
	return ch.Info, true
}

// Journal exposes the flight recorder for the events API and tests.
func (s *Server) Journal() *journal.Journal { return s.journal }

// Flow returns one known flow's description.
func (s *Server) Flow(id int64) (FlowInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Flow(id)
}

// Flows lists the known flows — active, repairing and evicted — by ID.
func (s *Server) Flows() []FlowInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Flows()
}

// ActiveFlows reports the number of committed, unreleased flows.
func (s *Server) ActiveFlows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state.Active()
}

// NetworkState snapshots the live residual network consistently (no
// commit or release interleaves with the read).
func (s *Server) NetworkState() NetworkState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := NetworkState{
		Nodes:       s.net.G.NumNodes(),
		ActiveFlows: s.state.Active(),
		Links:       make([]LinkState, 0, s.net.G.NumEdges()),
	}
	for _, e := range s.net.G.Edges() {
		st.Links = append(st.Links, LinkState{
			ID: int(e.ID), From: int(e.A), To: int(e.B),
			Capacity: e.Capacity, Residual: s.state.EdgeResidual(e.ID),
		})
	}
	s.net.Instances(func(inst network.Instance) {
		st.Instances = append(st.Instances, InstanceState{
			Node: int(inst.Node), VNF: int(inst.VNF),
			Capacity: inst.Capacity,
			Residual: s.state.InstanceResidual(inst.Node, inst.VNF),
		})
	})
	sort.Slice(st.Instances, func(i, k int) bool {
		a, b := st.Instances[i], st.Instances[k]
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.VNF < b.VNF
	})
	return st
}

// Draining reports whether the server has stopped admitting flows.
func (s *Server) Draining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// Drain shuts the server down gracefully: stop admitting (new Submits get
// ErrDraining), wait for every in-flight request and restore attempt to
// answer, then stop the timeline. Committed flows stay committed — drain is
// about requests, not flows. If ctx expires while in-flight work remains,
// Drain returns the context error without stopping anything (the caller is
// typically about to exit the process).
func (s *Server) Drain(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
	s.stop(func(l *wal.Log) {
		// Seal durability: one final snapshot makes the next startup's
		// replay empty, then flush + fsync + close the log.
		s.mu.Lock()
		s.walSnapshotLocked()
		s.mu.Unlock()
		_ = l.Close()
	})
	return nil
}

// stop stops the timeline, once, and hands the WAL (if any) to seal. No
// request is in flight; a restore the timeline backs off is dropped.
func (s *Server) stop(seal func(*wal.Log)) {
	s.stopOnce.Do(func() {
		s.timeline.Stop()
		if s.wal != nil {
			seal(s.wal)
		}
	})
}

// Close is Drain without a deadline, for tests and defer.
func (s *Server) Close() error { return s.Drain(context.Background()) }
