// Command dagsfc-load drives a dagsfc-serve control plane with a Poisson
// arrival process of random DAG-SFC flows (the paper's §5.1 request
// distribution) and reports the acceptance ratio and request latency
// percentiles.
//
// It targets a running server with -url, or with -selfserve starts its
// own in-process server on an ephemeral port and drives it over real
// TCP — the one-command demo and the CI smoke test:
//
//	dagsfc-load -url http://localhost:8080 -n 200 -mean-gap 50ms -hold 10s
//	dagsfc-load -selfserve -smoke
//
// -smoke replaces the load run with a deterministic end-to-end check:
// embed one flow, verify the residual network shrank, release it, verify
// the residuals returned to the seed exactly, and scrape /metrics for a
// nonzero request count. It exits nonzero on any violation.
package main

import (
	"context"
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
	"sync"
	"time"

	"dagsfc/internal/diag"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
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
		seed        = flag.Int64("seed", 1, "request-generator seed")
		concurrency = flag.Int("concurrency", 16, "max in-flight requests")
		retries     = flag.Int("retries", 3, "max retries per flow on retryable rejections (429/409/503)")
		retryWait   = flag.Duration("retry-backoff", 25*time.Millisecond, "base retry backoff (doubles per attempt, capped at 32x)")
		smoke       = flag.Bool("smoke", false, "run the deterministic smoke check instead of the load")
		nodes       = flag.Int("nodes", 50, "generated network size (selfserve only)")
		logLevel    = flag.String("log-level", "off", "selfserve structured log threshold: debug, info, warn, error, off")
		logFormat   = flag.String("log-format", "text", "selfserve structured log encoding: text or json")
		walDir      = flag.String("wal-dir", "", "selfserve durable flow state directory (empty = durability off)")
		walSync     = flag.String("wal-sync", "commit", "selfserve WAL fsync policy: commit, batch or off")
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
		})
	})
}

// startSelfServe boots an in-process control plane on an ephemeral local
// port, so the load path still crosses a real HTTP round-trip. A
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
	srv, err := server.New(server.Config{Net: nw, Seed: seed, Logger: logger, WALDir: walDir, WALSync: walSync})
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

	// The server-side view of the same run: per-stage latency percentiles
	// from the dagsfc_server_stage_seconds histograms, and the journal's
	// account of why requests were rejected or retried.
	if snap, err := cl.MetricsSnapshot(ctx); err == nil {
		printStageTable(os.Stdout, snap)
	}
	printJournalSummary(ctx, cl)
	return nil
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

// printJournalSummary pages the server's flight recorder and prints the
// rejection reasons and retry activity it recorded — the server's own
// explanation of the client-side status counts above.
func printJournalSummary(ctx context.Context, cl *client.Client) {
	var (
		rejected  = make(map[string]int)
		conflicts int
		retries   int
		evicted   int
		cursor    uint64
	)
	for {
		page, err := cl.Events(ctx, cursor, 0)
		if err != nil {
			return // an old server without /v1/events; nothing to print
		}
		for _, ev := range page.Events {
			switch ev.Type {
			case journal.TypeRejected:
				rejected[ev.Err]++
			case journal.TypeCommitConflict:
				conflicts++
			case journal.TypeEnqueue:
				if ev.Attempt > 0 {
					retries++
				}
			case journal.TypeEvicted:
				evicted++
			}
		}
		if len(page.Events) == 0 || page.Next == cursor {
			break
		}
		cursor = page.Next
	}
	if len(rejected) == 0 && conflicts == 0 && retries == 0 && evicted == 0 {
		return
	}
	fmt.Printf("journal: %d commit conflicts, %d conflict re-embeds, %d evictions\n",
		conflicts, retries, evicted)
	reasons := make([]string, 0, len(rejected))
	for r := range rejected {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		fmt.Printf("journal: rejected %dx: %s\n", rejected[r], r)
	}
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
	// global journal, and the committed flow's own timeline running
	// enqueue → committed → released.
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
	saw := make(map[journal.Type]bool)
	for _, ev := range timeline.Events {
		saw[ev.Type] = true
	}
	for _, want := range []journal.Type{journal.TypeEnqueue, journal.TypeCommitted, journal.TypeReleased} {
		if !saw[want] {
			return fmt.Errorf("smoke: flow %d timeline missing %q (got %d events)", info.ID, want, len(timeline.Events))
		}
	}
	fmt.Fprintf(os.Stderr, "smoke: journal recorded %d events for flow %d\n", len(timeline.Events), info.ID)
	fmt.Fprintln(os.Stderr, "smoke: commit/release cycle exact, telemetry live — ok")
	return nil
}
