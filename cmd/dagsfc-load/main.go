// Command dagsfc-load drives a dagsfc-serve control plane over HTTP: a
// Poisson arrival process of random DAG-SFC flows (the paper's §5.1
// request distribution), reported as the acceptance ratio and request
// latency percentiles, optionally followed by a fault phase that checks
// the survivability invariants end to end.
//
// It targets a running server with -url, or with -selfserve starts its
// own in-process server on an ephemeral port and drives it over real
// TCP — the one-command demo and the CI smoke tests:
//
//	dagsfc-load -url http://localhost:8080 -n 200 -mean-gap 50ms -hold 10s
//	dagsfc-load -selfserve -smoke
//	dagsfc-load -selfserve -n 24 -size 3 -hold 0 -faults 6 -protect-frac 0.5
//
// -smoke replaces the load run with a deterministic end-to-end check:
// embed one flow, verify the residual network shrank, release it, verify
// the residuals returned to the seed exactly, and scrape /metrics for a
// nonzero request count. It exits nonzero on any violation.
//
// -faults N|FILE follows the arrivals with a fault phase: N seeded
// incidents, or the schedule FILE holds in the faults text format,
// replayed 10 ms a schedule unit. Every fault applied checks the
// protection contract; the end of the run checks that every fault was
// restored, every repair settled, the ledger drains to the seed residuals
// once every flow is released, no worker panicked and, when -protect-frac
// asked for backups, some flow failed over. Request i asks for a backup
// iff i < protect-frac·n. -journal-dump FILE writes the server's retained
// journal at the end of any run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"dagsfc/internal/diag"
	"dagsfc/internal/faults"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/telemetry"
)

func main() {
	var (
		url         = flag.String("url", "", "server base URL (default: -selfserve)")
		selfserve   = flag.Bool("selfserve", false, "start an in-process server on an ephemeral port and drive it")
		n           = flag.Int("n", 100, "number of flows to submit")
		meanGap     = flag.Duration("mean-gap", 20*time.Millisecond, "mean Poisson inter-arrival gap")
		hold        = flag.Duration("hold", 5*time.Second, "mean flow holding time, sent as ttl_seconds (0 = no TTL)")
		size        = flag.Int("size", 5, "SFC size (number of VNFs)")
		width       = flag.Int("width", 3, "maximum parallel VNF set size")
		kinds       = flag.Int("kinds", 10, "VNF categories to draw from (match the server's network)")
		rate        = flag.Float64("rate", 1, "flow delivery rate")
		seed        = flag.Int64("seed", 1, "request-generator and fault-schedule seed")
		concurrency = flag.Int("concurrency", 16, "max in-flight requests")
		retries     = flag.Int("retries", 3, "max retries per flow on retryable rejections (429/409/503)")
		retryWait   = flag.Duration("retry-backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt, capped at 32x)")
		smoke       = flag.Bool("smoke", false, "run the deterministic smoke check instead of the load")
		nodes       = flag.Int("nodes", 50, "generated network size (selfserve only)")
		logLevel    = flag.String("log-level", "off", "selfserve structured log threshold: debug, info, warn, error, off")
		logFormat   = flag.String("log-format", "text", "selfserve structured log encoding: text or json")
		walDir      = flag.String("wal-dir", "", "selfserve durable flow state directory (empty = durability off)")
		walSync     = flag.String("wal-sync", "commit", "selfserve WAL fsync policy: commit, batch or off")
		faultSpec   = flag.String("faults", "", "after the arrivals, replay N seeded fault incidents, or the schedule in FILE, and check the survivability invariants")
		protectFrac = flag.Float64("protect-frac", 0, "fraction of the flows, first by index, that ask for a backup")
		journalDump = flag.String("journal-dump", "", "at the end of the run, write the server's retained journal as JSON to this file")
	)
	diag.Main("dagsfc-load", func() error {
		base := *url
		if base == "" && !*selfserve {
			return fmt.Errorf("-url or -selfserve is required")
		}
		if base == "" {
			srv, addr, stopServe, err := startSelfServe(*nodes, *kinds, *seed, *logLevel, *logFormat, *walDir, *walSync)
			if err != nil {
				return err
			}
			defer stopServe()
			defer srv.Close()
			base = "http://" + addr
			fmt.Fprintf(os.Stderr, "dagsfc-load: self-serving on %s\n", base)
		}
		cl := client.New(base, nil)
		if *smoke {
			return runSmoke(cl, *kinds, *rate, *seed)
		}
		return runLoad(cl, loadConfig{
			n: *n, meanGap: *meanGap, hold: *hold,
			sfcCfg: sfcgen.Config{Size: *size, LayerWidth: *width, VNFKinds: *kinds},
			rate:   *rate, seed: *seed, concurrency: *concurrency,
			retries: *retries, retryWait: *retryWait,
			faults: *faultSpec, protectFrac: *protectFrac, journalDump: *journalDump,
		})
	})
}

// startSelfServe boots an in-process control plane on an ephemeral local
// port, so the load path still crosses a real HTTP round-trip. Repairs
// back off from 5 ms (capped at 100 ms), so a fault phase settles fast. A
// non-empty walDir makes it durable under the given fsync policy.
func startSelfServe(nodes, kinds int, seed int64, logLevel, logFormat, walDir, walSync string) (*server.Server, string, func(), error) {
	gen := netgen.Default()
	gen.Nodes = nodes
	gen.VNFKinds = kinds
	nw, err := netgen.Generate(gen, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, "", nil, err
	}
	logger, err := journal.NewLogger(os.Stderr, logLevel, logFormat)
	if err != nil {
		return nil, "", nil, err
	}
	srv, err := server.New(server.Config{
		Net: nw, Seed: seed, Logger: logger, WALDir: walDir, WALSync: walSync,
		RepairBackoff: 5 * time.Millisecond, RepairBackoffCap: 100 * time.Millisecond,
	})
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	stop := func() { _ = hs.Close() }
	return srv, ln.Addr().String(), stop, nil
}

type loadConfig struct {
	n           int
	meanGap     time.Duration
	hold        time.Duration
	sfcCfg      sfcgen.Config
	rate        float64
	seed        int64
	concurrency int
	retries     int
	retryWait   time.Duration
	faults      string  // -faults: "" for no fault phase
	protectFrac float64 // requests below this fraction of n ask for a backup
	journalDump string
}

type outcome struct {
	accepted bool
	status   int
	latency  time.Duration
	retries  int
}

// retryDelay picks the wait before retry `attempt` (1-based) for request
// i: capped exponential backoff plus deterministic jitter derived from
// (i, attempt), so concurrent goroutines need no shared rand.Rand and the
// same seed replays the same schedule. A server-provided Retry-After
// wins when it is longer.
func retryDelay(base time.Duration, i, attempt int, retryAfter time.Duration) time.Duration {
	shift := attempt - 1
	if shift > 5 {
		shift = 5 // cap at 32x base
	}
	delay := base << shift
	// splitmix64-style hash of (i, attempt) for the jitter in [0, delay/2].
	h := uint64(i)*0x9e3779b97f4a7c15 + uint64(attempt)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	h ^= h >> 27
	if delay > 0 {
		delay += time.Duration(h % uint64(delay/2+1))
	}
	if retryAfter > delay {
		delay = retryAfter
	}
	return delay
}

func runLoad(cl *client.Client, cfg loadConfig) error {
	ctx := context.Background()
	st, err := cl.Network(ctx)
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}
	var sched faults.Schedule
	if cfg.faults != "" {
		if sched, err = loadSchedule(cfg.faults, cfg.seed, st.Nodes, len(st.Links)); err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		fmt.Fprintf(os.Stderr, "faults: schedule of %d incidents over %d nodes / %d links:\n%s",
			len(sched), st.Nodes, len(st.Links), sched.Format())
	}

	// Pre-generate the whole workload in one goroutine (rand.Rand is not
	// concurrency-safe): SFCs, endpoints, arrival gaps and holding times.
	rng := rand.New(rand.NewSource(cfg.seed))
	reqs := make([]server.FlowRequest, cfg.n)
	gaps := make([]time.Duration, cfg.n)
	for i := range reqs {
		dag, err := sfcgen.Generate(cfg.sfcCfg, rng)
		if err != nil {
			return err
		}
		reqs[i] = server.FlowRequest{
			SFC: sfc.Format(dag),
			Src: rng.Intn(st.Nodes), Dst: rng.Intn(st.Nodes),
			Rate: cfg.rate, Size: 1,
		}
		if cfg.hold > 0 {
			reqs[i].TTLSeconds = rng.ExpFloat64() * cfg.hold.Seconds()
		}
		// An index rule, not a draw: -protect-frac leaves the stream alone.
		if float64(i) < cfg.protectFrac*float64(cfg.n) {
			reqs[i].Protection = server.ProtectionBackup
		}
		gaps[i] = time.Duration(rng.ExpFloat64() * float64(cfg.meanGap))
	}

	outcomes := make([]outcome, cfg.n)
	sem := make(chan struct{}, max(1, cfg.concurrency))
	var wg sync.WaitGroup
	begin := time.Now()
	for i := range reqs {
		time.Sleep(gaps[i])
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			var o outcome
			for attempt := 0; ; attempt++ {
				_, err := cl.CreateFlow(ctx, reqs[i])
				if err == nil {
					o.accepted, o.status = true, 0
					break
				}
				apiErr, ok := err.(*client.APIError)
				if !ok {
					o.status = -1
					break
				}
				o.status = apiErr.StatusCode
				if attempt >= cfg.retries || !apiErr.Retryable() {
					break
				}
				o.retries++
				time.Sleep(retryDelay(cfg.retryWait, i, attempt+1, apiErr.RetryAfter))
			}
			o.latency = time.Since(t0)
			outcomes[i] = o
		}(i)
	}
	wg.Wait()
	report(outcomes, time.Since(begin))
	if cfg.faults != "" {
		err = runFaults(ctx, cl, st, sched, cfg.protectFrac > 0)
	}

	// The server-side view of the same run: per-stage latency percentiles
	// from the dagsfc_server_stage_seconds histograms, and the journal's
	// account of why requests were rejected or retried — and, when the run
	// failed, of what became of every flow a fault stranded.
	if snap, err := cl.MetricsSnapshot(ctx); err == nil {
		printStageTable(os.Stdout, snap)
	}
	events, missed, jerr := fetchJournal(ctx, cl)
	switch {
	case jerr != nil && cfg.journalDump != "":
		return errors.Join(err, fmt.Errorf("-journal-dump: %w", jerr))
	case jerr != nil:
		return err // an old server without /v1/events: nothing to summarize
	}
	printJournalSummary(os.Stdout, events, missed)
	if err != nil {
		postMortem(os.Stderr, events, missed)
	}
	if cfg.journalDump != "" {
		err = errors.Join(err, writeJournal(cfg.journalDump, events, missed))
	}
	return err
}

// stageBuckets returns one stage's cumulative dagsfc_server_stage_seconds
// buckets from a /metrics snapshot, sorted by upper bound: the scrape is
// outside input (an old server, a relabelling proxy in between), and its
// array order is not part of the format.
func stageBuckets(snap telemetry.Snapshot, stage string) ([]telemetry.BucketCount, bool) {
	ss, ok := snap.Series("dagsfc_server_stage_seconds", telemetry.L("stage", stage))
	buckets := slices.Clone(ss.Buckets)
	sort.Slice(buckets, func(i, j int) bool { return buckets[i].UpperBound < buckets[j].UpperBound })
	return buckets, ok
}

// bucketQuantile estimates quantile q from cumulative buckets (sorted by
// upper bound): the upper bound of the first bucket holding the q-th
// observation (the classic histogram_quantile upper-bound estimate,
// without interpolation). The observation total is read from the +Inf
// bucket only — never from "whichever bucket came last" — and a histogram
// with no +Inf bucket (a truncated scrape) or cumulative counts that ever
// decrease (merged or corrupted series) yields NaN rather than a made-up
// latency.
func bucketQuantile(buckets []telemetry.BucketCount, q float64) float64 {
	if !histogramValid(buckets) {
		return math.NaN()
	}
	total := buckets[len(buckets)-1].Count
	if total == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(total)))
	for _, b := range buckets {
		if b.Count >= rank {
			return b.UpperBound
		}
	}
	return buckets[len(buckets)-1].UpperBound
}

// histogramValid reports whether le-sorted cumulative buckets form a
// well-formed histogram: a closing +Inf bucket and counts that never
// decrease as the bounds grow.
func histogramValid(buckets []telemetry.BucketCount) bool {
	n := len(buckets)
	if n == 0 || !math.IsInf(buckets[n-1].UpperBound, 1) {
		return false
	}
	for i := 1; i < n; i++ {
		if buckets[i].Count < buckets[i-1].Count {
			return false
		}
	}
	return true
}

// printStageTable renders the per-stage p50/p95/p99 table from a /metrics
// snapshot. Stages with no observations are omitted; no stage histograms at
// all prints nothing (an old server). A stage whose histogram is present
// but malformed (truncated scrape, merged series) gets a warning line
// instead of silently vanishing or printing a bogus quantile.
func printStageTable(w io.Writer, snap telemetry.Snapshot) {
	order := []string{"queue_wait", "embed", "commit_wait", "repair", "failover"}
	var rows [][4]string
	var invalid []string
	for _, stage := range order {
		buckets, ok := stageBuckets(snap, stage)
		if !ok {
			continue
		}
		if !histogramValid(buckets) {
			invalid = append(invalid, stage)
			continue
		}
		if buckets[len(buckets)-1].Count == 0 {
			continue
		}
		rows = append(rows, [4]string{stage,
			fmtSeconds(bucketQuantile(buckets, 0.50)),
			fmtSeconds(bucketQuantile(buckets, 0.95)),
			fmtSeconds(bucketQuantile(buckets, 0.99))})
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "server stages (histogram upper bounds):\n")
		fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", "stage", "p50", "p95", "p99")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-12s %10s %10s %10s\n", r[0], r[1], r[2], r[3])
		}
	}
	for _, stage := range invalid {
		fmt.Fprintf(w, "warning: stage %q histogram is malformed (missing +Inf bucket or non-monotonic counts); quantiles unavailable\n", stage)
	}
}

// fmtSeconds renders a histogram bound as a duration ("≤" semantics).
func fmtSeconds(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return time.Duration(v * float64(time.Second)).Round(time.Microsecond).String()
}

// fetchJournal pages the server's whole retained journal. missed sums
// what the ring overwrote before each page was read (EventsPage.Missed):
// a run that outgrows the ring says by how much, never silently.
func fetchJournal(ctx context.Context, cl *client.Client) (events []journal.Event, missed uint64, err error) {
	var cursor uint64
	for {
		page, err := cl.Events(ctx, cursor, 0)
		if err != nil {
			return nil, 0, err
		}
		events = append(events, page.Events...)
		missed += page.Missed
		if len(page.Events) == 0 || page.Next == cursor {
			return events, missed, nil
		}
		cursor = page.Next
	}
}

// missedNote says how much of the journal the ring overwrote before it
// was read; "" when nothing was.
func missedNote(missed uint64) string {
	if missed == 0 {
		return ""
	}
	return fmt.Sprintf(" (%d earlier events overwritten before they were read)", missed)
}

// printJournalSummary prints the rejection reasons and retry activity the
// server's flight recorder holds — its own explanation of the client-side
// status counts.
func printJournalSummary(w io.Writer, events []journal.Event, missed uint64) {
	var (
		rejected  = make(map[string]int)
		conflicts int
		retries   int
		evicted   int
	)
	for _, ev := range events {
		switch ev.Type {
		case journal.TypeRejected:
			rejected[ev.Err]++
		case journal.TypeCommitConflict:
			conflicts++
		case journal.TypeEmbedDone:
			if ev.Attempt > 0 {
				retries++
			}
		case evEvict:
			evicted++
		}
	}
	if len(rejected) == 0 && conflicts == 0 && retries == 0 && evicted == 0 && missed == 0 {
		return
	}
	fmt.Fprintf(w, "journal: %d commit conflicts, %d conflict re-embeds, %d evictions%s\n",
		conflicts, retries, evicted, missedNote(missed))
	reasons := make([]string, 0, len(rejected))
	for r := range rejected {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Fprintf(w, "journal: rejected %dx: %s\n", rejected[r], r)
	}
}

// The state changes the journal readers look for, named as the journal
// names them: by their transition's kind.
var (
	evCommit, evRelease          = journal.Type(flowstate.Commit.String()), journal.Type(flowstate.Release.String())
	evStrand, evEvict            = journal.Type(flowstate.Strand.String()), journal.Type(flowstate.Evict.String())
	evFaultApply, evFaultRestore = journal.Type(flowstate.FaultApply.String()), journal.Type(flowstate.FaultRestore.String())
)

// postMortem prints the last journal events of every flow a fault
// stranded or evicted, and the faults applied and restored over the same
// stretch of the journal: the causal trace of a failed run.
func postMortem(w io.Writer, events []journal.Event, missed uint64) {
	const perFlow = 20
	tails := make(map[int64][]journal.Event)
	var ids []int64
	for _, ev := range events {
		if _, seen := tails[ev.Flow]; !seen && ev.Flow != 0 && (ev.Type == evStrand || ev.Type == evEvict) {
			tails[ev.Flow] = nil
			ids = append(ids, ev.Flow)
		}
	}
	if len(ids) == 0 {
		return
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, ev := range events {
		if tail, ok := tails[ev.Flow]; ok {
			tails[ev.Flow] = append(tail, ev)
		}
	}
	fmt.Fprintf(w, "post-mortem: last %d journal events per stranded or evicted flow%s:\n", perFlow, missedNote(missed))
	from, to := uint64(math.MaxUint64), uint64(0)
	for _, id := range ids {
		tail := tails[id]
		tail = tail[max(0, len(tail)-perFlow):]
		from, to = min(from, tail[0].Seq), max(to, tail[len(tail)-1].Seq)
		for _, ev := range tail {
			fmt.Fprintf(w, "  flow %d %s\n", ev.Flow, eventText(ev))
		}
	}
	fmt.Fprintln(w, "post-mortem: faults applied and restored meanwhile:")
	for _, ev := range events {
		if (ev.Type == evFaultApply || ev.Type == evFaultRestore) && from <= ev.Seq && ev.Seq <= to {
			fmt.Fprintf(w, "  %s\n", eventText(ev))
		}
	}
}

// eventText renders one journal event on one line, without its flow.
func eventText(ev journal.Event) string {
	line := fmt.Sprintf("seq %d %s", ev.Seq, ev.Type)
	if ev.Attempt != 0 {
		line += fmt.Sprintf(" attempt=%d", ev.Attempt)
	}
	if ev.Seconds != 0 {
		line += fmt.Sprintf(" seconds=%.6f", ev.Seconds)
	}
	if ev.Detail != "" {
		line += " detail=" + ev.Detail
	}
	if ev.Err != "" {
		line += " error=" + ev.Err
	}
	return line
}

// writeJournal writes the journal in the shape GET /v1/events pages it:
// the events, and how many earlier ones the ring overwrote first.
func writeJournal(path string, events []journal.Event, missed uint64) error {
	b, err := json.MarshalIndent(server.EventsPage{Events: events, Missed: missed}, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("-journal-dump: %w", err)
	}
	fmt.Fprintf(os.Stderr, "dagsfc-load: wrote %d journal events to %s%s\n", len(events), path, missedNote(missed))
	return nil
}

// faultUnit is the wall-clock length of one schedule time unit.
const faultUnit = 10 * time.Millisecond

// loadSchedule reads -faults. A count draws that many incidents — mean
// gap 1 and mean hold 2 schedule units, 30 % of them node-down, 30 % of
// the link incidents degradations — from an rng of their own, so -n does
// not change which elements fail. Anything else names a file in the
// faults text format.
func loadSchedule(spec string, seed int64, nodes, edges int) (faults.Schedule, error) {
	if count, err := strconv.Atoi(spec); err == nil {
		return faults.Generate(faults.GenConfig{
			Nodes: nodes, Edges: edges, Count: count,
			MeanGap: 1, MeanHold: 2, NodeFrac: 0.3, DegradeFrac: 0.3,
		}, rand.New(rand.NewSource(seed^0x63686173))) // "chas"
	}
	f, err := os.Open(spec)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return faults.Parse(f)
}

// wireTarget replays a schedule over the typed client (a faults.Target)
// and checks the protection contract at every fault it applies: a flow
// active with an active backup when the fault lands is still active once
// the fault is applied — failed over, or short of its backup — never
// stranded. node-down is exempt: a link-disjoint pair may share a node.
// The check is exact: ApplyFault applies every verdict before it answers,
// and the driver is the only source of faults.
type wireTarget struct {
	ctx        context.Context
	cl         *client.Client
	checked    int // covered flows read back after their fault
	violations int
}

func (t *wireTarget) ApplyFault(f network.Fault) error {
	before, err := t.cl.Flows(t.ctx)
	if err != nil {
		return err
	}
	if _, err := t.cl.ApplyFault(t.ctx, server.FaultToWire(f)); err != nil {
		return err
	}
	after, err := t.cl.Flows(t.ctx)
	if err != nil {
		return err
	}
	return t.check(f, before, after)
}

func (t *wireTarget) RestoreFault(f network.Fault) error {
	_, err := t.cl.RestoreFault(t.ctx, server.FaultToWire(f))
	return err
}

// check holds the flow tables read either side of fault f to the
// protection contract. A covered flow gone from after was released or
// expired meanwhile, which breaks no promise.
func (t *wireTarget) check(f network.Fault, before, after []server.FlowInfo) error {
	covered := make(map[int64]bool)
	for _, fl := range before {
		if fl.State == server.FlowStateActive && fl.BackupActive {
			covered[fl.ID] = true
		}
	}
	var err error
	for _, fl := range after {
		if !covered[fl.ID] {
			continue
		}
		t.checked++
		if fl.State != server.FlowStateActive && f.Kind != network.FaultNodeDown {
			t.violations++
			err = errors.Join(err, fmt.Errorf("protection contract: flow %d held an active backup when %s landed but is %s (cause %q)",
				fl.ID, f, fl.State, fl.Cause))
		}
	}
	return err
}

// settle polls GET /v1/faults until the restore controller has nothing
// queued or in hand: every consequence of every fault so far is terminal.
func settle(ctx context.Context, cl *client.Client) (server.FaultState, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		fs, err := cl.Faults(ctx)
		if err != nil || fs.PendingRepairs == 0 {
			return fs, err
		}
		if time.Now().After(deadline) {
			return fs, fmt.Errorf("faults: %d repairs still pending after 30s", fs.PendingRepairs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// series reads one label-free counter or gauge off a /metrics snapshot; 0
// when the family is absent.
func series(snap telemetry.Snapshot, name string) float64 {
	s, _ := snap.Series(name)
	return s.Value
}

// runFaults is the fault phase. It replays sched through the wire target,
// waits for the restore controller to settle, and checks the end state: no
// fault active and every incident applied and restored, no flow
// repairing, no protection contract broken and, when protected, some flow
// failed over; then, every flow released, the seed residuals with no flow
// or backup active, and no worker panic.
func runFaults(ctx context.Context, cl *client.Client, seed server.NetworkState, sched faults.Schedule, protected bool) error {
	before, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("faults: metrics: %w", err)
	}
	target := &wireTarget{ctx: ctx, cl: cl}
	err = faults.Replay(ctx, target, sched, faultUnit, func(ev faults.Event, err error) {
		verb := "restore"
		if ev.Apply {
			verb = "apply"
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: t=%.2f %s %s: %v\n", ev.At, verb, ev.Fault, err)
			return
		}
		fmt.Fprintf(os.Stderr, "faults: t=%.2f %s %s\n", ev.At, verb, ev.Fault)
	})
	if err != nil {
		return fmt.Errorf("faults: replay: %w", err)
	}
	fs, err := settle(ctx, cl)
	if err != nil {
		return err
	}
	if len(fs.Active) != 0 || fs.Applied != len(sched) || fs.Restored != len(sched) {
		return fmt.Errorf("faults: %d still active, %d applied, %d restored; want 0 active and %d of each",
			len(fs.Active), fs.Applied, fs.Restored, len(sched))
	}
	flows, err := cl.Flows(ctx)
	if err != nil {
		return err
	}
	var active, evicted int
	for _, f := range flows {
		switch f.State {
		case server.FlowStateRepairing:
			return fmt.Errorf("faults: flow %d is repairing with no repair pending", f.ID)
		case server.FlowStateEvicted:
			evicted++
		default:
			active++
		}
	}
	after, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("faults: metrics: %w", err)
	}
	failovers := series(after, telemetry.MetricProtectFailovers) - series(before, telemetry.MetricProtectFailovers)
	reprotects := series(after, telemetry.MetricProtectReprotects) - series(before, telemetry.MetricProtectReprotects)
	fmt.Fprintf(os.Stderr, "faults: settled — %d flows active, %d evicted; %v failovers, %v re-protects; %d covered-flow checks, %d contract violations\n",
		active, evicted, failovers, reprotects, target.checked, target.violations)
	switch {
	case target.violations > 0:
		return fmt.Errorf("faults: %d protected flows stranded by a link fault", target.violations)
	case protected && failovers == 0:
		return fmt.Errorf("faults: part of the population asked for a backup, but no fault failed a flow over")
	}

	// Drain: releasing everything must return the ledger to the seed.
	for _, f := range flows {
		var apiErr *client.APIError
		if _, err := cl.ReleaseFlow(ctx, f.ID); err != nil && !(errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound) {
			return fmt.Errorf("faults: release %d: %w", f.ID, err)
		}
	}
	end, err := cl.Network(ctx)
	if err != nil {
		return err
	}
	if end.ActiveFlows != 0 || !seed.SameResiduals(end) {
		return fmt.Errorf("faults: after releasing every flow, %d active and the ledger at seed = %v", end.ActiveFlows, seed.SameResiduals(end))
	}
	final, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("faults: metrics: %w", err)
	}
	if b := series(final, telemetry.MetricProtectBackupsActive); b != 0 {
		return fmt.Errorf("faults: %v backups active after releasing every flow", b)
	}
	if p := series(final, telemetry.MetricServerWorkerPanics); p > 0 {
		return fmt.Errorf("faults: %v embed workers panicked", p)
	}
	fmt.Fprintln(os.Stderr, "faults: restored, settled, drained to the seed, zero panics — ok")
	return nil
}

func report(outcomes []outcome, wall time.Duration) {
	var accepted, retriedOK, totalRetries int
	byStatus := make(map[int]int)
	lats := make([]time.Duration, 0, len(outcomes))
	for _, o := range outcomes {
		totalRetries += o.retries
		if o.accepted {
			accepted++
			if o.retries > 0 {
				retriedOK++
			}
		} else {
			byStatus[o.status]++
		}
		lats = append(lats, o.latency)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	pct := func(q float64) time.Duration {
		if len(lats) == 0 {
			return 0
		}
		return lats[int(q*float64(len(lats)-1))]
	}
	fmt.Printf("flows: %d submitted in %v (%.1f/s)\n",
		len(outcomes), wall.Round(time.Millisecond), float64(len(outcomes))/wall.Seconds())
	fmt.Printf("accepted: %d (acceptance ratio %.3f)\n",
		accepted, float64(accepted)/float64(len(outcomes)))
	if totalRetries > 0 {
		fmt.Printf("retries: %d total, %d flows accepted after a retry\n", totalRetries, retriedOK)
	}
	statuses := make([]int, 0, len(byStatus))
	for s := range byStatus {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	for _, s := range statuses {
		label := fmt.Sprintf("http %d", s)
		if s == -1 {
			label = "transport error"
		}
		fmt.Printf("rejected (%s): %d\n", label, byStatus[s])
	}
	fmt.Printf("latency: p50 %v  p90 %v  p99 %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.90).Round(time.Microsecond), pct(0.99).Round(time.Microsecond))
}

// runSmoke is the CI end-to-end check: one flow through the full
// commit/release cycle with exact residual accounting, plus a telemetry
// scrape. Rate 1 keeps every reservation integral, so "restored exactly"
// is a float-equality check.
func runSmoke(cl *client.Client, kinds int, rate float64, seed int64) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := cl.Healthz(ctx); err != nil {
		return fmt.Errorf("smoke: healthz: %w", err)
	}
	seedState, err := cl.Network(ctx)
	if err != nil {
		return fmt.Errorf("smoke: network: %w", err)
	}

	// Random src/dst pairs are not all feasible; try a few.
	rng := rand.New(rand.NewSource(seed))
	var info server.FlowInfo
	created := false
	for attempt := 0; attempt < 20 && !created; attempt++ {
		dag, err := sfcgen.Generate(sfcgen.Config{Size: 3, LayerWidth: 3, VNFKinds: kinds}, rng)
		if err != nil {
			return err
		}
		info, err = cl.CreateFlow(ctx, server.FlowRequest{
			SFC: sfc.Format(dag),
			Src: rng.Intn(seedState.Nodes), Dst: rng.Intn(seedState.Nodes),
			Rate: rate, Size: 1,
		})
		if err == nil {
			created = true
		} else if _, ok := err.(*client.APIError); !ok {
			return fmt.Errorf("smoke: create: %w", err)
		}
	}
	if !created {
		return fmt.Errorf("smoke: no flow embeddable in 20 attempts")
	}
	fmt.Fprintf(os.Stderr, "smoke: flow %d committed, cost %.3f\n", info.ID, info.Cost.Total)

	mid, err := cl.Network(ctx)
	if err != nil {
		return err
	}
	if seedState.SameResiduals(mid) {
		return fmt.Errorf("smoke: commit left the residual network unchanged")
	}
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		return fmt.Errorf("smoke: release: %w", err)
	}
	end, err := cl.Network(ctx)
	if err != nil {
		return err
	}
	if !seedState.SameResiduals(end) || end.ActiveFlows != 0 {
		return fmt.Errorf("smoke: release did not restore the seed residuals")
	}
	snap, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("smoke: metrics: %w", err)
	}
	// The traffic above must show, and the path-tree cache families must
	// always be exposed (the server pre-creates them at zero).
	for _, name := range []string{
		"dagsfc_server_requests_total",
		"dagsfc_server_stage_seconds",
		"dagsfc_journal_events_total",
		"dagsfc_path_cache_hits_total",
		"dagsfc_path_cache_misses_total",
		"dagsfc_path_cache_evictions_total",
	} {
		if _, ok := snap.Series(name); !ok {
			return fmt.Errorf("smoke: /metrics missing %s", name)
		}
	}
	// The embed above must have consulted the cache at least once — every
	// tree it computed was a recorded miss.
	if misses, _ := snap.Series("dagsfc_path_cache_misses_total"); !(misses.Value > 0) {
		return fmt.Errorf("smoke: dagsfc_path_cache_misses_total = %v after an embed, want > 0", misses.Value)
	}

	// The flight recorder must have witnessed the whole cycle: a non-empty
	// global journal, and the committed flow's own timeline exactly
	// enqueue → dequeue → embed_done → commit → release.
	page, err := cl.Events(ctx, 0, 0)
	if err != nil {
		return fmt.Errorf("smoke: events: %w", err)
	}
	if len(page.Events) == 0 {
		return fmt.Errorf("smoke: journal is empty after a commit/release cycle")
	}
	timeline, err := cl.FlowEvents(ctx, info.ID, 0)
	if err != nil {
		return fmt.Errorf("smoke: flow events: %w", err)
	}
	want := []journal.Type{journal.TypeEnqueue, journal.TypeDequeue, journal.TypeEmbedDone, evCommit, evRelease}
	got := make([]journal.Type, len(timeline.Events))
	for i, ev := range timeline.Events {
		got[i] = ev.Type
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("smoke: flow %d timeline %v, want %v", info.ID, got, want)
	}
	fmt.Fprintf(os.Stderr, "smoke: journal recorded %d events for flow %d\n", len(timeline.Events), info.ID)
	fmt.Fprintln(os.Stderr, "smoke: commit/release cycle exact, telemetry live — ok")
	return nil
}
