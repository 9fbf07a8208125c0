// Command dagsfc-chaos replays a seeded fault schedule against a running
// dagsfc-serve control plane while driving flow load, then verifies the
// survivability invariants end to end:
//
//   - every injected fault is restored (no capacity stays quarantined),
//   - repairing flows settle to a terminal state (active or evicted),
//   - releasing everything drains the ledger back to the exact seed
//     residuals,
//   - no embed worker panicked.
//
// It targets a running server with -url, or with -selfserve starts its
// own in-process server on an ephemeral port and drives it over real
// TCP. -smoke shrinks the run to the deterministic CI check:
//
//	dagsfc-chaos -url http://localhost:8080 -n 60 -faults 12 -unit 100ms
//	dagsfc-chaos -selfserve -smoke
//
// The schedule is generated from -seed (same seed, same schedule), or
// read from a file in the faults text format with -schedule.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"dagsfc/internal/diag"
	"dagsfc/internal/faults"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

func main() {
	var (
		url         = flag.String("url", "", "server base URL (default: -selfserve)")
		selfserve   = flag.Bool("selfserve", false, "start an in-process server on an ephemeral port and drive it")
		n           = flag.Int("n", 40, "flows to submit before the chaos window")
		faultCount  = flag.Int("faults", 8, "incidents to generate")
		unit        = flag.Duration("unit", 50*time.Millisecond, "wall-clock length of one schedule time unit")
		meanGap     = flag.Float64("mean-gap", 1, "mean gap between incidents, schedule units")
		meanHold    = flag.Float64("mean-hold", 2, "mean fault duration, schedule units")
		nodeFrac    = flag.Float64("node-frac", 0.3, "probability an incident is a node failure")
		degradeFrac = flag.Float64("degrade-frac", 0.3, "probability a link incident is a degradation")
		schedFile   = flag.String("schedule", "", "read the fault schedule from this file instead of generating it")
		size        = flag.Int("size", 3, "SFC size (number of VNFs)")
		width       = flag.Int("width", 3, "maximum parallel VNF set size")
		kinds       = flag.Int("kinds", 10, "VNF categories to draw from (match the server's network)")
		rate        = flag.Float64("rate", 1, "flow delivery rate (1 keeps residual checks exact)")
		seed        = flag.Int64("seed", 1, "schedule and workload seed")
		nodes       = flag.Int("nodes", 50, "generated network size (selfserve only)")
		smoke       = flag.Bool("smoke", false, "shrink to the deterministic CI run")
		journalDump = flag.String("journal-dump", "", "on failure, write the server's full journal as JSON to this file")
		dumpAlways  = flag.Bool("journal-dump-always", false, "write the -journal-dump file on success too, not only on invariant failure")
		killRestart = flag.Bool("kill-restart", false, "durability check: kill a WAL-backed server at a seeded point mid-workload, restart it, compare against a never-killed control run")
		walDir      = flag.String("wal-dir", "", "WAL directory: required by -kill-restart (emptied first; default a temp dir), optional for -selfserve")
		protect     = flag.Bool("protect", false, "protection check: mixed protected/unprotected population under one-at-a-time edge-down faults; backup-holding flows must fail over, never strand or evict")
		protectFrac = flag.Float64("protect-frac", 0.5, "fraction of submitted flows requesting backup protection (-protect and -kill-restart)")
	)
	diag.Main("dagsfc-chaos", func() error {
		if *smoke {
			*n, *faultCount, *unit = 24, 6, 10*time.Millisecond
		}
		if *killRestart {
			return runKillRestart(killRestartConfig{
				nodes: *nodes, kinds: *kinds, seed: *seed, n: *n,
				sfcCfg: sfcgen.Config{Size: *size, LayerWidth: *width, VNFKinds: *kinds},
				rate:   *rate, walDir: *walDir,
				protectFrac: *protectFrac,
			})
		}
		base := *url
		if base == "" && !*selfserve {
			return fmt.Errorf("-url or -selfserve is required")
		}
		if base == "" {
			srv, addr, stop, err := startSelfServe(*nodes, *kinds, *seed, *walDir)
			if err != nil {
				return err
			}
			defer stop()
			defer srv.Close()
			base = "http://" + addr
			fmt.Fprintf(os.Stderr, "dagsfc-chaos: self-serving on %s\n", base)
		}
		cl := client.New(base, nil)
		if *protect {
			err := runProtect(cl, protectConfig{
				n: *n, faults: *faultCount, frac: *protectFrac,
				sfcCfg: sfcgen.Config{Size: *size, LayerWidth: *width, VNFKinds: *kinds},
				rate:   *rate, seed: *seed,
			})
			if err != nil {
				dumpJournalOnFailure(cl, *journalDump)
			}
			return err
		}
		err := runChaos(cl, chaosConfig{
			n: *n, faults: *faultCount, unit: *unit,
			meanGap: *meanGap, meanHold: *meanHold,
			nodeFrac: *nodeFrac, degradeFrac: *degradeFrac,
			schedFile: *schedFile,
			sfcCfg:    sfcgen.Config{Size: *size, LayerWidth: *width, VNFKinds: *kinds},
			rate:      *rate, seed: *seed,
		})
		if err != nil {
			// Turn "invariant failed" into a causal trace: the flight
			// recorder's view of every flow a fault touched, plus a full
			// JSON dump for the CI artifact.
			dumpJournalOnFailure(cl, *journalDump)
		} else if *dumpAlways {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			dumpJournalFile(ctx, cl, *journalDump)
			cancel()
		}
		return err
	})
}

// startSelfServe boots an in-process control plane with fast repair
// knobs, so the chaos run still crosses a real HTTP round-trip. A
// non-empty walDir makes it durable.
func startSelfServe(nodes, kinds int, seed int64, walDir string) (*server.Server, string, func(), error) {
	gen := netgen.Default()
	gen.Nodes = nodes
	gen.VNFKinds = kinds
	nw, err := netgen.Generate(gen, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, "", nil, err
	}
	srv, err := server.New(server.Config{
		Net: nw, Seed: seed,
		RepairBackoff: 5 * time.Millisecond, RepairBackoffCap: 100 * time.Millisecond,
		WALDir: walDir,
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
	return srv, ln.Addr().String(), func() { _ = hs.Close() }, nil
}

type chaosConfig struct {
	n, faults             int
	unit                  time.Duration
	meanGap, meanHold     float64
	nodeFrac, degradeFrac float64
	schedFile             string
	sfcCfg                sfcgen.Config
	rate                  float64
	seed                  int64
}

// wireTarget adapts the typed HTTP client to the faults.Target interface,
// so Replay drives a remote server exactly like it drives a raw ledger.
type wireTarget struct {
	ctx context.Context
	cl  *client.Client
}

func (t wireTarget) ApplyFault(f network.Fault) error {
	_, err := t.cl.ApplyFault(t.ctx, server.FaultToWire(f))
	return err
}

func (t wireTarget) RestoreFault(f network.Fault) error {
	_, err := t.cl.RestoreFault(t.ctx, server.FaultToWire(f))
	return err
}

func runChaos(cl *client.Client, cfg chaosConfig) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	seedState, err := cl.Network(ctx)
	if err != nil {
		return fmt.Errorf("probe network: %w", err)
	}

	sched, err := loadSchedule(cfg, seedState)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "chaos: schedule of %d incidents over %d nodes / %d links:\n%s",
		len(sched), seedState.Nodes, len(seedState.Links), sched.Format())

	// Phase 1: commit the pre-chaos population.
	rng := rand.New(rand.NewSource(cfg.seed))
	submitted, accepted := 0, 0
	for i := 0; i < cfg.n; i++ {
		dag, err := sfcgen.Generate(cfg.sfcCfg, rng)
		if err != nil {
			return err
		}
		submitted++
		_, err = cl.CreateFlow(ctx, server.FlowRequest{
			SFC: sfc.Format(dag),
			Src: rng.Intn(seedState.Nodes), Dst: rng.Intn(seedState.Nodes),
			Rate: cfg.rate, Size: 1,
		})
		if err == nil {
			accepted++
		} else if _, ok := err.(*client.APIError); !ok {
			return fmt.Errorf("chaos: create: %w", err)
		}
	}
	if accepted == 0 {
		return fmt.Errorf("chaos: no flow admitted before the fault window")
	}
	fmt.Fprintf(os.Stderr, "chaos: population %d/%d flows committed\n", accepted, submitted)

	// Phase 2: replay the schedule in real time against the live server.
	events := 0
	err = faults.Replay(ctx, wireTarget{ctx: ctx, cl: cl}, sched, cfg.unit, func(ev faults.Event, err error) {
		events++
		verb := "restore"
		if ev.Apply {
			verb = "apply"
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "chaos: t=%.2f %s %s: %v\n", ev.At, verb, ev.Fault, err)
			return
		}
		fmt.Fprintf(os.Stderr, "chaos: t=%.2f %s %s\n", ev.At, verb, ev.Fault)
	})
	if err != nil {
		return fmt.Errorf("chaos: replay: %w", err)
	}

	// Phase 3: settle and verify. Every fault must be restored (the
	// schedule is self-restoring; anything left is a server-side leak) and
	// every flow must reach a terminal state.
	fs, err := cl.Faults(ctx)
	if err != nil {
		return err
	}
	if len(fs.Active) != 0 {
		return fmt.Errorf("chaos: %d faults still active after a fully restoring schedule: %+v", len(fs.Active), fs.Active)
	}
	if fs.Applied != len(sched) || fs.Restored != len(sched) {
		return fmt.Errorf("chaos: fault accounting %d applied / %d restored, want %d each", fs.Applied, fs.Restored, len(sched))
	}
	flows, err := settleFlows(ctx, cl)
	if err != nil {
		return err
	}
	var active, repaired, evicted int
	for _, f := range flows {
		switch f.State {
		case server.FlowStateEvicted:
			evicted++
		default:
			active++
			if f.Repairs > 0 {
				repaired++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "chaos: settled — %d active (%d repaired at least once), %d evicted\n",
		active, repaired, evicted)
	printEvictionReasons(ctx, cl)

	// Phase 4: tear everything down; the ledger must drain to the seed.
	for _, f := range flows {
		if _, err := cl.ReleaseFlow(ctx, f.ID); err != nil {
			return fmt.Errorf("chaos: release %d: %w", f.ID, err)
		}
	}
	end, err := cl.Network(ctx)
	if err != nil {
		return err
	}
	if end.ActiveFlows != 0 {
		return fmt.Errorf("chaos: %d flows still active after full release", end.ActiveFlows)
	}
	if !seedState.SameResiduals(end) {
		return fmt.Errorf("chaos: ledger did not drain to the seed residuals")
	}

	panics, err := counter(ctx, cl, "dagsfc_server_worker_panics_total")
	if err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	if panics > 0 {
		return fmt.Errorf("chaos: %d embed workers panicked", panics)
	}
	fmt.Fprintln(os.Stderr, "chaos: faults restored, flows settled, ledger drained to seed, zero panics — ok")
	return nil
}

// --- protect: the protection/failover acceptance check ---------------

type protectConfig struct {
	n, faults int
	frac      float64
	sfcCfg    sfcgen.Config
	rate      float64
	seed      int64
}

// runProtect drives a mixed protected/unprotected population through
// one-at-a-time edge-down faults (each fully restored and settled before
// the next lands) and checks the protection contract: a flow holding an
// active backup when a fault lands is failed over in place — it never
// strands and never evicts. Edges are visited in a seeded permutation
// until at least one failover was observed and the fault budget is
// spent; the run then drains everything back to the seed residuals.
func runProtect(cl *client.Client, cfg protectConfig) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	seedState, err := cl.Network(ctx)
	if err != nil {
		return fmt.Errorf("protect: probe network: %w", err)
	}

	// Phase 1: population. Every flow with index under frac*n asks for a
	// backup; admission may legitimately refuse protection (no disjoint
	// placement) and those rejections are counted, not fatal.
	rng := rand.New(rand.NewSource(cfg.seed))
	var accepted, protected, refused int
	for i := 0; i < cfg.n; i++ {
		dag, err := sfcgen.Generate(cfg.sfcCfg, rng)
		if err != nil {
			return err
		}
		req := server.FlowRequest{
			SFC: sfc.Format(dag),
			Src: rng.Intn(seedState.Nodes), Dst: rng.Intn(seedState.Nodes),
			Rate: cfg.rate, Size: 1,
		}
		if float64(i) < cfg.frac*float64(cfg.n) {
			req.Protection = server.ProtectionBackup
		}
		info, err := cl.CreateFlow(ctx, req)
		switch {
		case err == nil:
			accepted++
			if info.BackupActive {
				protected++
			}
		case req.Protection == server.ProtectionBackup:
			refused++
		default:
			if _, ok := err.(*client.APIError); !ok {
				return fmt.Errorf("protect: create: %w", err)
			}
		}
	}
	if protected == 0 {
		return fmt.Errorf("protect: no protected flow admitted (%d refused) — nothing to check", refused)
	}
	fmt.Fprintf(os.Stderr, "protect: population %d flows (%d protected, %d protection refusals)\n",
		accepted, protected, refused)

	// Phase 2: seeded one-at-a-time edge-down rounds.
	edgeRng := rand.New(rand.NewSource(cfg.seed ^ 0x70726f74)) // "prot"
	rounds := 0
	for _, e := range edgeRng.Perm(len(seedState.Links)) {
		failovers, err := counter(ctx, cl, "dagsfc_protect_failovers_total")
		if err != nil {
			return err
		}
		if rounds >= cfg.faults && failovers > 0 {
			break
		}
		covered := make(map[int64]bool) // flows the contract protects this round
		flows, err := cl.Flows(ctx)
		if err != nil {
			return err
		}
		for _, f := range flows {
			if f.State == server.FlowStateActive && f.BackupActive {
				covered[f.ID] = true
			}
		}
		fault := server.FaultRequest{Kind: "edge-down", Link: e}
		if _, err := cl.ApplyFault(ctx, fault); err != nil {
			return fmt.Errorf("protect: apply edge-down %d: %w", e, err)
		}
		rounds++
		if flows, err = settleProtect(ctx, cl); err != nil {
			return err
		}
		for _, f := range flows {
			if covered[f.ID] && f.State != server.FlowStateActive {
				return fmt.Errorf("protect: flow %d held an active backup when edge %d went down but ended %q (cause %q) — a protected flow must fail over, not %s",
					f.ID, e, f.State, f.Cause, f.State)
			}
		}
		if _, err := cl.RestoreFault(ctx, fault); err != nil {
			return fmt.Errorf("protect: restore edge-down %d: %w", e, err)
		}
		if _, err := settleProtect(ctx, cl); err != nil {
			return err
		}
	}
	failovers, err := counter(ctx, cl, "dagsfc_protect_failovers_total")
	if err != nil {
		return err
	}
	reprotects, _ := counter(ctx, cl, "dagsfc_protect_reprotects_total")
	if failovers == 0 {
		return fmt.Errorf("protect: %d edge-down rounds produced zero failovers over %d protected flows", rounds, protected)
	}
	fmt.Fprintf(os.Stderr, "protect: %d rounds, %d failovers, %d re-protects, all covered flows stayed active\n",
		rounds, failovers, reprotects)

	// Phase 3: drain. Releasing everything must return the ledger to the
	// seed residuals and zero the backup gauge.
	flows, err := settleProtect(ctx, cl)
	if err != nil {
		return err
	}
	for _, f := range flows {
		if _, err := cl.ReleaseFlow(ctx, f.ID); err != nil {
			return fmt.Errorf("protect: release %d: %w", f.ID, err)
		}
	}
	end, err := cl.Network(ctx)
	if err != nil {
		return err
	}
	if !seedState.SameResiduals(end) {
		return fmt.Errorf("protect: ledger did not drain to the seed residuals")
	}
	snap, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return err
	}
	if g, _ := snap.Series("dagsfc_protect_backups_active"); g.Value != 0 {
		return fmt.Errorf("protect: backup gauge %v after full release, want 0", g.Value)
	}
	if panics, _ := snap.Series("dagsfc_server_worker_panics_total"); panics.Value > 0 {
		return fmt.Errorf("protect: %v embed workers panicked", panics.Value)
	}
	fmt.Fprintln(os.Stderr, "protect: failovers verified, ledger drained to seed, zero panics — ok")
	return nil
}

// counter reads one label-free counter or gauge off the server's /metrics
// snapshot; 0 when the family is absent.
func counter(ctx context.Context, cl *client.Client, name string) (int, error) {
	snap, err := cl.MetricsSnapshot(ctx)
	if err != nil {
		return 0, fmt.Errorf("metrics: %w", err)
	}
	ss, _ := snap.Series(name)
	return int(ss.Value), nil
}

// settleProtect waits until no flow is mid-repair AND the flow table has
// stopped changing across two consecutive polls — the second condition
// covers the re-protect controller, whose in-flight work keeps flows in
// the active state and is therefore invisible to the repairing count.
func settleProtect(ctx context.Context, cl *client.Client) ([]server.FlowInfo, error) {
	deadline := time.Now().Add(30 * time.Second)
	var prev string
	for {
		flows, err := settleFlows(ctx, cl)
		if err != nil {
			return nil, err
		}
		sig := make([]string, 0, len(flows))
		for _, f := range flows {
			sig = append(sig, fmt.Sprintf("%d:%s:%v:%d:%d", f.ID, f.State, f.BackupActive, f.Failovers, f.Repairs))
		}
		cur := strings.Join(sig, ",")
		if cur == prev {
			return flows, nil
		}
		prev = cur
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("protect: flow table still churning after 30s")
		}
		time.Sleep(150 * time.Millisecond)
	}
}

func loadSchedule(cfg chaosConfig, st server.NetworkState) (faults.Schedule, error) {
	if cfg.schedFile != "" {
		f, err := os.Open(cfg.schedFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return faults.Parse(f)
	}
	// A schedule seed decoupled from the workload seed, so -n does not
	// change which elements fail.
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x63686173)) // "chas"
	return faults.Generate(faults.GenConfig{
		Nodes: st.Nodes, Edges: len(st.Links),
		Count: cfg.faults, MeanGap: cfg.meanGap, MeanHold: cfg.meanHold,
		NodeFrac: cfg.nodeFrac, DegradeFrac: cfg.degradeFrac,
	}, rng)
}

// settleFlows polls the flow list until no flow is mid-repair (the
// controller has driven everything to a terminal state).
func settleFlows(ctx context.Context, cl *client.Client) ([]server.FlowInfo, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		flows, err := cl.Flows(ctx)
		if err != nil {
			return nil, err
		}
		repairing := 0
		for _, f := range flows {
			if f.State == server.FlowStateRepairing {
				repairing++
			}
		}
		if repairing == 0 {
			return flows, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos: %d flows still repairing after 30s", repairing)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchJournal pages the server's whole retained journal.
func fetchJournal(ctx context.Context, cl *client.Client) ([]journal.Event, error) {
	var all []journal.Event
	var cursor uint64
	for {
		page, err := cl.Events(ctx, cursor, 0)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Events...)
		if len(page.Events) == 0 || page.Next == cursor {
			return all, nil
		}
		cursor = page.Next
	}
}

// printEvictionReasons summarizes the journal's terminal repair failures:
// which flows were evicted, after how many attempts, and why — the
// journal-derived replacement for a bare eviction count.
func printEvictionReasons(ctx context.Context, cl *client.Client) {
	events, err := fetchJournal(ctx, cl)
	if err != nil {
		return
	}
	for _, ev := range events {
		if ev.Type != journal.TypeEvicted {
			continue
		}
		reason := ev.Err
		if reason == "" {
			reason = "(no error recorded)"
		}
		fmt.Fprintf(os.Stderr, "chaos: evicted flow %d after %d attempts (%s, %.0fms stranded): %s\n",
			ev.Flow, ev.Attempt, ev.Detail, ev.Seconds*1000, reason)
	}
}

// dumpJournalOnFailure prints the last events of every flow a fault
// stranded or evicted (a readable causal trace on stderr) and, when
// dumpFile is set, writes the full retained journal as JSON for the CI
// artifact. Best-effort: the server may already be gone.
func dumpJournalOnFailure(cl *client.Client, dumpFile string) {
	const perFlowTail = 20
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	events, err := fetchJournal(ctx, cl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: journal unavailable for post-mortem: %v\n", err)
		return
	}
	// Flows worth tracing: anything a fault touched or that reached a bad
	// terminal state.
	interesting := make(map[int64]bool)
	for _, ev := range events {
		switch ev.Type {
		case journal.TypeFaultStrand, journal.TypeEvicted:
			if ev.Flow != 0 {
				interesting[ev.Flow] = true
			}
		}
	}
	if len(interesting) > 0 {
		fmt.Fprintf(os.Stderr, "chaos: post-mortem — last %d journal events per stranded/evicted flow:\n", perFlowTail)
	}
	ids := make([]int64, 0, len(interesting))
	for id := range interesting {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		var tail []journal.Event
		for _, ev := range events {
			if ev.Flow == id {
				tail = append(tail, ev)
			}
		}
		if len(tail) > perFlowTail {
			tail = tail[len(tail)-perFlowTail:]
		}
		for _, ev := range tail {
			line := fmt.Sprintf("chaos:   flow %d seq %d %s", ev.Flow, ev.Seq, ev.Type)
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
			fmt.Fprintln(os.Stderr, line)
		}
	}
	writeJournalFile(events, dumpFile)
}

// dumpJournalFile fetches the journal and writes the JSON dump — the
// -journal-dump-always path, without the failure post-mortem trace.
func dumpJournalFile(ctx context.Context, cl *client.Client, dumpFile string) {
	if dumpFile == "" {
		return
	}
	events, err := fetchJournal(ctx, cl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: journal unavailable for dump: %v\n", err)
		return
	}
	writeJournalFile(events, dumpFile)
}

func writeJournalFile(events []journal.Event, dumpFile string) {
	if dumpFile == "" {
		return
	}
	f, err := os.Create(dumpFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: journal dump: %v\n", err)
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(events); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: journal dump: %v\n", err)
		return
	}
	fmt.Fprintf(os.Stderr, "chaos: wrote %d journal events to %s\n", len(events), dumpFile)
}

// --- kill-restart: the durability acceptance check -------------------

type killRestartConfig struct {
	nodes, kinds int
	seed         int64
	n            int
	sfcCfg       sfcgen.Config
	rate         float64
	walDir       string
	protectFrac  float64
}

// killOp is one step of the seeded workload: a flow arrival, or a
// departure that releases one currently-live flow (picked by slot so the
// choice is deterministic whenever the live sets agree).
type killOp struct {
	submit  *server.FlowRequest
	release int
}

// runKillRestart proves the durability guarantee end to end. The same
// seeded workload of arrivals and departures is driven against two
// in-process servers: a control that is never killed, and a WAL-backed
// one killed (server.Crash — the in-process SIGKILL: no final snapshot,
// no flush, nothing beyond what the per-commit fsync policy already
// forced to disk) at a seeded random point, then restarted over the same
// WAL directory to finish the workload. Same seed must give the same end
// state: flow table identical field for field (timestamps excepted — the
// two runs happen at different wall times) and ledger residuals
// float-identical.
func runKillRestart(cfg killRestartConfig) error {
	ctx := context.Background()
	if cfg.walDir == "" {
		dir, err := os.MkdirTemp("", "dagsfc-wal-")
		if err != nil {
			return err
		}
		cfg.walDir = dir
	} else {
		// A stale log would replay a previous run's state into this one.
		if err := os.RemoveAll(cfg.walDir); err != nil {
			return err
		}
	}

	// The workload: n arrivals, each followed by a seeded chance of one
	// departure. Generated once, applied identically to both runs.
	rng := rand.New(rand.NewSource(cfg.seed))
	var ops []killOp
	for i := 0; i < cfg.n; i++ {
		dag, err := sfcgen.Generate(cfg.sfcCfg, rng)
		if err != nil {
			return err
		}
		req := server.FlowRequest{
			SFC: sfc.Format(dag),
			Src: rng.Intn(cfg.nodes), Dst: rng.Intn(cfg.nodes),
			Rate: cfg.rate, Size: 1,
		}
		// A seeded slice of the population is protected, so the restart
		// also has to recover backup reservations bit for bit.
		if rng.Float64() < cfg.protectFrac {
			req.Protection = server.ProtectionBackup
		}
		ops = append(ops, killOp{submit: &req})
		if rng.Float64() < 0.35 {
			ops = append(ops, killOp{release: rng.Intn(1 << 30)})
		}
	}
	killAt := 1 + rand.New(rand.NewSource(cfg.seed^0x6b696c6c)).Intn(len(ops)-1) // "kill"
	fmt.Fprintf(os.Stderr, "kill-restart: %d ops, SIGKILL before op %d, wal dir %s\n",
		len(ops), killAt, cfg.walDir)

	newServer := func(wal bool) (*server.Server, error) {
		gen := netgen.Default()
		gen.Nodes, gen.VNFKinds = cfg.nodes, cfg.kinds
		nw, err := netgen.Generate(gen, rand.New(rand.NewSource(cfg.seed)))
		if err != nil {
			return nil, err
		}
		scfg := server.Config{Net: nw, Seed: cfg.seed}
		if wal {
			scfg.WALDir, scfg.WALSync = cfg.walDir, "commit"
			scfg.WALSnapshotEvery = 8 // small, so the kill crosses snapshot generations
		}
		return server.New(scfg)
	}

	// Control run: never killed.
	control, err := newServer(false)
	if err != nil {
		return err
	}
	defer control.Close()
	var controlLive []int64
	for _, op := range ops {
		applyKillOp(ctx, control, op, &controlLive)
	}

	// Durable run: killed before ops[killAt], restarted, finished.
	durable, err := newServer(true)
	if err != nil {
		return err
	}
	var durableLive []int64
	for _, op := range ops[:killAt] {
		applyKillOp(ctx, durable, op, &durableLive)
	}
	durable.Crash()
	fmt.Fprintf(os.Stderr, "kill-restart: killed after %d ops (%d flows live), restarting...\n",
		killAt, len(durableLive))
	restarted, err := newServer(true)
	if err != nil {
		return fmt.Errorf("kill-restart: recovery failed: %w", err)
	}
	defer restarted.Close()
	fmt.Fprintf(os.Stderr, "kill-restart: recovered %d active flows\n", restarted.ActiveFlows())
	for _, op := range ops[killAt:] {
		applyKillOp(ctx, restarted, op, &durableLive)
	}

	// The two runs must agree exactly.
	a, b := control.Flows(), restarted.Flows()
	if len(a) != len(b) {
		return fmt.Errorf("kill-restart: flow count diverged: control %d vs recovered %d", len(a), len(b))
	}
	sort.Slice(a, func(i, k int) bool { return a[i].ID < a[k].ID })
	sort.Slice(b, func(i, k int) bool { return b[i].ID < b[k].ID })
	for i := range a {
		ca, cb := a[i], b[i]
		ca.Created, cb.Created = time.Time{}, time.Time{}
		ca.ExpiresAt, cb.ExpiresAt = nil, nil
		if ca != cb {
			return fmt.Errorf("kill-restart: flow %d diverged:\ncontrol:   %+v\nrecovered: %+v", ca.ID, ca, cb)
		}
	}
	if !control.NetworkState().SameResiduals(restarted.NetworkState()) {
		return fmt.Errorf("kill-restart: ledger residuals diverged from the control run")
	}
	fmt.Fprintf(os.Stderr, "kill-restart: %d flows and every residual identical to the never-killed control — ok\n", len(a))
	return nil
}

// applyKillOp applies one workload op, maintaining the driver-side list
// of live flow IDs in arrival order. Rejections are part of the workload
// (both runs see the same ones); only transport-level errors would
// differ, and Submit is in-process here.
func applyKillOp(ctx context.Context, srv *server.Server, op killOp, live *[]int64) {
	if op.submit != nil {
		if info, err := srv.Submit(ctx, *op.submit); err == nil {
			*live = append(*live, info.ID)
		}
		return
	}
	if len(*live) == 0 {
		return
	}
	i := op.release % len(*live)
	if _, err := srv.Release((*live)[i]); err == nil {
		*live = append((*live)[:i], (*live)[i+1:]...)
	}
}
