package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/telemetry"
)

// twoPathNet offers two disjoint paths 0→3, each with an f(1) instance;
// node 1 is strictly cheaper, so the deterministic embed lands there and
// a fault on node 1 forces a reroute through node 2.
func twoPathNet() *network.Network {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10) // e0
	g.MustAddEdge(1, 3, 1, 10) // e1
	g.MustAddEdge(0, 2, 1, 10) // e2
	g.MustAddEdge(2, 3, 1, 10) // e3
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 5, 4)
	net.MustAddInstance(2, 1, 6, 4)
	return net
}

// repairOutcome is one terminal fault consequence, as the journal
// recorded it: "revalidate", a repair's "commit", "evict", "failover" or
// "backup_loss", with the judged attempts and the fault (for an eviction,
// fault plus cause; a repair's commit takes both from the restore attempt
// that made it). With a fixed fault sequence and a deterministic embedder
// the sequence is reproducible: casualties are scanned in ascending
// flow-ID order and restored strictly one at a time.
type repairOutcome struct {
	Flow     int64
	Outcome  journal.Type
	Attempts int
	Fault    string
}

func repairOutcomes(srv *server.Server) []repairOutcome {
	events, _, _ := srv.Journal().Since(0, 0)
	tried := make(map[int64]journal.Event) // each flow's latest restore attempt
	var out []repairOutcome
	for _, ev := range events {
		switch ev.Type {
		case journal.TypeRepairAttempt:
			tried[ev.Flow] = ev
		case named(flowstate.Commit):
			if ev.Detail == "repair" {
				out = append(out, repairOutcome{ev.Flow, ev.Type, tried[ev.Flow].Attempt, tried[ev.Flow].Detail})
			}
		case named(flowstate.Revalidate), named(flowstate.Evict), named(flowstate.Failover), named(flowstate.BackupLoss):
			out = append(out, repairOutcome{ev.Flow, ev.Type, ev.Attempt, ev.Detail})
		}
	}
	return out
}

// fastRepairs keeps test repairs fast without changing their semantics.
func fastRepairs(cfg server.Config) server.Config {
	cfg.RepairRetries = 2
	cfg.RepairBackoff = time.Millisecond
	cfg.RepairBackoffCap = 4 * time.Millisecond
	return cfg
}

func TestServerRepairsFlowAcrossFault(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: twoPathNet(), Workers: 2}))
	ctx := context.Background()
	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}

	info, err := cl.CreateFlow(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != server.FlowStateActive {
		t.Fatalf("fresh flow state %q, want active", info.State)
	}

	// Take node 1 down over the API: the flow must re-embed via node 2.
	st, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "node-down", Node: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Active) != 1 || st.Applied != 1 {
		t.Fatalf("fault state after apply: %+v", st)
	}
	// The flow's record flips before the restore controller journals the
	// outcome, so wait for both.
	waitFor(t, func() bool {
		got, ok := srv.Flow(info.ID)
		return ok && got.State == server.FlowStateActive && got.Repairs == 1 &&
			len(repairOutcomes(srv)) == 1
	})
	got, _ := srv.Flow(info.ID)
	if got.Cost.Total <= info.Cost.Total {
		t.Fatalf("repaired cost %v not above original %v (should use pricier node 2)", got.Cost.Total, info.Cost.Total)
	}
	log := repairOutcomes(srv)
	if len(log) != 1 || log[0] != (repairOutcome{info.ID, named(flowstate.Commit), 1, "node-down 1"}) {
		t.Fatalf("repair outcomes = %+v", log)
	}
	if bad := srv.RevalidateFlows(); len(bad) != 0 {
		t.Fatalf("flows failing revalidation after repair: %v", bad)
	}

	if _, err := cl.RestoreFault(ctx, server.FaultRequest{Kind: "node-down", Node: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	end, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResiduals(residuals(seed), residuals(end)) {
		t.Fatalf("ledger did not drain to seed: %v vs %v", residuals(seed), residuals(end))
	}
}

func TestServerEvictsStrandedFlow(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: tinyNet(), Workers: 2}))
	ctx := context.Background()
	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}

	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// The only path dies; there is no repair target.
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "link-down", Link: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, ok := srv.Flow(info.ID)
		return ok && got.State == server.FlowStateEvicted
	})
	if srv.ActiveFlows() != 0 {
		t.Fatalf("evicted flow still counted active: %d", srv.ActiveFlows())
	}

	// The tombstone stays visible over the API with its terminal state.
	list, err := cl.Flows(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].State != server.FlowStateEvicted || list[0].LastError == "" {
		t.Fatalf("evicted flow listing = %+v", list)
	}
	log := repairOutcomes(srv)
	if len(log) != 1 || log[0].Outcome != named(flowstate.Evict) || log[0].Attempts != 2 {
		t.Fatalf("repair outcomes = %+v", log)
	}

	// Eviction already released the capacity: restoring the fault alone
	// must return the ledger to the seed.
	if _, err := cl.RestoreFault(ctx, server.FaultRequest{Kind: "link-down", Link: 0}); err != nil {
		t.Fatal(err)
	}
	end, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResiduals(residuals(seed), residuals(end)) {
		t.Fatalf("residuals after restore: %v, want seed %v", residuals(end), residuals(seed))
	}

	// DELETE acknowledges the tombstone; a second DELETE is a 404.
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatalf("acknowledging eviction: %v", err)
	}
	list, err = cl.Flows(ctx)
	if err != nil || len(list) != 0 {
		t.Fatalf("tombstone not cleared: %+v, %v", list, err)
	}
	var apiErr *client.APIError
	if _, err := cl.ReleaseFlow(ctx, info.ID); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("double release: %v", err)
	}
}

// TestFaultStateReportsPendingRepairs: the fault endpoints report the
// restore controller's backlog. A flow stranded with nowhere to go fails
// its first attempt and the controller then sleeps an hour of backoff, so
// the backlog holds at one for as long as the test looks.
func TestFaultStateReportsPendingRepairs(t *testing.T) {
	_, cl := newTestServer(t, server.Config{Net: tinyNet(), RepairBackoff: time.Hour, RepairBackoffCap: time.Hour})
	ctx := context.Background()
	if _, err := cl.CreateFlow(ctx, lineRequest(1)); err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Faults(ctx); err != nil || st.PendingRepairs != 0 {
		t.Fatalf("fault state before any fault = %+v (%v), want no backlog", st, err)
	}
	st, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "link-down", Link: 0})
	if err != nil || st.PendingRepairs != 1 {
		t.Fatalf("apply answered %+v (%v), want the stranded flow pending", st, err)
	}
	if st, err := cl.Faults(ctx); err != nil || st.PendingRepairs != 1 {
		t.Fatalf("GET /v1/faults = %+v (%v), want the stranded flow pending", st, err)
	}
}

func TestServerRevalidatesUntouchedFlow(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: tinyNet()}))
	ctx := context.Background()

	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// Half of edge 0's 100 units quarantined: the rate-1 flow still fits
	// and must survive in place, untouched.
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "link-degrade", Link: 0, Fraction: 0.5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(repairOutcomes(srv)) == 1 })
	log := repairOutcomes(srv)
	if log[0].Outcome != named(flowstate.Revalidate) || log[0].Flow != info.ID {
		t.Fatalf("repair outcomes = %+v", log)
	}
	got, ok := srv.Flow(info.ID)
	if !ok || got.State != server.FlowStateActive || got.Repairs != 0 {
		t.Fatalf("flow after degrade = %+v", got)
	}
	if srv.PendingRepairs() != 0 {
		t.Fatalf("pending repairs = %d, want 0", srv.PendingRepairs())
	}
}

func TestServerBreakerShedsAndRecovers(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{
		Net: tinyNet(), BreakerFailures: 2, BreakerCooldown: 100 * time.Millisecond,
	})
	ctx := context.Background()
	trips := seriesValue(telemetry.MetricServerBreakerTrips)

	// Two consecutive infeasible embeds trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := srv.Submit(ctx, lineRequest(1000)); !errors.Is(err, core.ErrNoEmbedding) {
			t.Fatalf("submit %d: %v, want ErrNoEmbedding", i, err)
		}
	}
	if got := seriesValue(telemetry.MetricServerBreakerState); got != 2 {
		t.Fatalf("breaker state gauge = %v after the trip, want 2 (open)", got)
	}
	_, err := srv.Submit(ctx, lineRequest(1))
	if !errors.Is(err, server.ErrOverloaded) {
		t.Fatalf("tripped breaker let a flow through: %v", err)
	}
	var oe *server.OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter <= 0 {
		t.Fatalf("overload error carries no Retry-After: %v", err)
	}

	// Over HTTP the shed maps to 503 with a Retry-After header.
	var apiErr *client.APIError
	if _, err := cl.CreateFlow(ctx, lineRequest(1)); !errors.As(err, &apiErr) ||
		apiErr.StatusCode != http.StatusServiceUnavailable || apiErr.RetryAfter <= 0 || !apiErr.Retryable() {
		t.Fatalf("HTTP shed = %v", err)
	}

	// After the cooldown a half-open probe goes through; its success
	// closes the breaker and normal admission resumes.
	time.Sleep(120 * time.Millisecond)
	info, err := srv.Submit(ctx, lineRequest(1))
	if err != nil {
		t.Fatalf("probe after cooldown: %v", err)
	}
	if got := seriesValue(telemetry.MetricServerBreakerState); got != 0 {
		t.Fatalf("breaker state gauge = %v after the good probe, want 0 (closed)", got)
	}
	if got := seriesValue(telemetry.MetricServerBreakerTrips) - trips; got != 1 {
		t.Fatalf("breaker trips counter rose by %v, want 1", got)
	}
	if _, err := srv.Submit(ctx, lineRequest(1)); err != nil {
		t.Fatalf("breaker did not close after a good probe: %v", err)
	}
	if _, err := srv.Release(info.ID); err != nil {
		t.Fatal(err)
	}
}

// TestRegisteredEmbedderIsChecked: a Config.Embedders entry's placement is
// checked and priced on the slot. A malformed one is the embedder's bug —
// ErrInternal, no flow, the ledger untouched to the bit — not a capacity
// conflict at the commit; a well-formed one is charged its price, not the
// cost the embedder claims.
func TestRegisteredEmbedderIsChecked(t *testing.T) {
	malformed := func(p *core.Problem) (*core.Result, error) {
		res, err := baseline.EmbedMINV(p)
		if err == nil {
			res.Solution.Layers[0].Nodes[0] = 0 // node 0 hosts no f(1)
		}
		return res, err
	}
	unpriced := func(p *core.Problem) (*core.Result, error) {
		res, err := baseline.EmbedMINV(p)
		if err == nil {
			res.Cost = core.Cost{}
		}
		return res, err
	}
	srv, _ := newTestServer(t, server.Config{
		Net: tinyNet(), Workers: 1,
		Embedders: map[string]server.Embedder{"malformed": malformed, "unpriced": unpriced},
	})
	ctx := context.Background()
	before := residuals(srv.NetworkState())

	req := lineRequest(1)
	req.Alg = "malformed"
	if _, err := srv.Submit(ctx, req); !errors.Is(err, server.ErrInternal) || !strings.Contains(err.Error(), `embedder "malformed" returned an invalid placement`) {
		t.Fatalf("malformed placement: %v, want ErrInternal naming the embedder", err)
	}
	if flows := srv.Flows(); len(flows) != 0 {
		t.Fatalf("a malformed placement registered %d flows", len(flows))
	}
	if after := residuals(srv.NetworkState()); !equalResiduals(before, after) {
		t.Fatalf("a malformed placement moved the ledger: %v -> %v", before, after)
	}

	req.Alg = "unpriced"
	info, err := srv.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	req.Alg = "minv"
	want, err := srv.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Cost.Total == 0 || info.Cost != want.Cost {
		t.Fatalf("registered embedder charged %+v, builtin minv %+v", info.Cost, want.Cost)
	}
}

func TestServerWorkerPanicRecovered(t *testing.T) {
	boom := func(p *core.Problem) (*core.Result, error) { panic("synthetic embedder bug") }
	srv, cl := newTestServer(t, server.Config{
		Net: tinyNet(), Workers: 1,
		Embedders: map[string]server.Embedder{"boom": boom},
	})
	ctx := context.Background()

	req := lineRequest(1)
	req.Alg = "boom"
	_, err := srv.Submit(ctx, req)
	if !errors.Is(err, server.ErrInternal) {
		t.Fatalf("panicking embedder: %v, want ErrInternal", err)
	}
	var apiErr *client.APIError
	if _, err := cl.CreateFlow(ctx, req); !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic over HTTP = %v, want 500", err)
	}

	// The slot survived: a normal flow still goes through it.
	if _, err := cl.CreateFlow(ctx, lineRequest(1)); err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	metrics, err := cl.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "dagsfc_server_worker_panics_total") {
		t.Fatal("metrics missing dagsfc_server_worker_panics_total")
	}
}

// chaosRow is one row of the chaos table: a population and a schedule
// mode. A settled row waits for the restore controller to go idle after
// every fault event, which pins the repair order, so two runs must agree
// exactly; a raced row replays the schedule at 1 ms a unit with no
// settling and checks only what holds under any interleaving.
type chaosRow struct {
	name      string
	protected bool // the first half of the flows ask for a backup
	settled   bool
}

// chaosOutcome is what two runs of a settled row must agree on.
type chaosOutcome struct {
	accepted  int
	log       []repairOutcome
	failovers float64
	checked   int // covered flows read back after a fault landed
	end       []float64
}

// chaosRun plays one row: 24 flows of three VNFs submitted in sequence to
// a seeded 50-node substrate, six seeded self-restoring incidents, then
// every flow released. It fails t on any broken survivability invariant:
// the protection contract at every fault applied, every fault restored,
// every repair settled, surviving flows valid, a failover when protected,
// the ledger drained to the seed with no backup held, no worker panic.
func chaosRun(t *testing.T, row chaosRow) chaosOutcome {
	t.Helper()
	gen := netgen.Default()
	gen.Nodes, gen.VNFKinds = 50, 10
	net := netgen.MustGenerate(gen, rand.New(rand.NewSource(1)))
	srv, err := server.New(server.Config{
		Net: net, Seed: 1, RepairBackoff: 5 * time.Millisecond, RepairBackoffCap: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	seed := srv.NetworkState()
	failovers, panics := seriesValue(telemetry.MetricProtectFailovers), seriesValue(telemetry.MetricServerWorkerPanics)

	// Sequential submissions keep the accept set deterministic.
	var out chaosOutcome
	rng := rand.New(rand.NewSource(1))
	const flows = 24
	for i := 0; i < flows; i++ {
		dag, src, dst := sfcgen.MustFlow(sfcgen.Config{Size: 3, LayerWidth: 3, VNFKinds: gen.VNFKinds}, gen.Nodes, rng)
		req := server.FlowRequest{SFC: sfc.Format(dag), Src: int(src), Dst: int(dst), Rate: 0.1 + 0.9*rng.Float64(), Size: 1}
		if row.protected && i < flows/2 {
			req.Protection = server.ProtectionBackup
		}
		if _, err := srv.Submit(ctx, req); err == nil {
			out.accepted++
		}
	}

	sched, err := faults.Generate(faults.GenConfig{
		Nodes: gen.Nodes, Edges: net.G.NumEdges(),
		Count: 6, MeanGap: 1, MeanHold: 2, NodeFrac: 0.3, DegradeFrac: 0.3,
	}, rand.New(rand.NewSource(1^0x63686173)))
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	for _, ev := range sched.Events() {
		if !row.settled {
			time.Sleep(time.Until(begin.Add(time.Duration(ev.At * float64(time.Millisecond)))))
		}
		if ev.Apply {
			out.checked += applyWithContract(t, srv, ev.Fault)
		} else if _, err := srv.RestoreFault(ev.Fault); err != nil {
			t.Fatalf("restore %v: %v", ev.Fault, err)
		}
		if !row.settled {
			continue
		}
		// Settle: every consequence of this event reaches a terminal state
		// before the next one fires. The gauges then state the settled facts.
		waitFor(t, func() bool { return srv.PendingRepairs() == 0 })
		if got, want := seriesValue(telemetry.MetricFaultsActive), len(srv.Faults().Active); got != float64(want) {
			t.Fatalf("after %+v: faults active gauge = %v, want %d", ev, got, want)
		}
		if got, want := seriesValue(telemetry.MetricServerActiveFlows), srv.ActiveFlows(); got != float64(want) {
			t.Fatalf("after %+v: active flows gauge = %v, want %d", ev, got, want)
		}
	}

	waitFor(t, func() bool { return srv.PendingRepairs() == 0 })
	if fs := srv.Faults(); len(fs.Active) != 0 || fs.Applied != len(sched) || fs.Restored != len(sched) {
		t.Fatalf("fault accounting after the full schedule: %+v, want 0 active and %d applied and restored", fs, len(sched))
	}
	for _, f := range srv.Flows() {
		if f.State == server.FlowStateRepairing {
			t.Fatalf("flow %d is repairing with no repair pending", f.ID)
		}
	}
	// No fault is active, so every surviving flow must still validate.
	if bad := srv.RevalidateFlows(); len(bad) != 0 {
		t.Fatalf("flows failing revalidation after chaos: %v", bad)
	}
	out.failovers = seriesValue(telemetry.MetricProtectFailovers) - failovers
	if row.protected && out.failovers < 1 {
		t.Fatal("half the population holds a backup, but no fault failed a flow over")
	}
	out.log = repairOutcomes(srv)

	for _, f := range srv.Flows() {
		if _, err := srv.Release(f.ID); err != nil {
			t.Fatalf("release %d: %v", f.ID, err)
		}
	}
	end := srv.NetworkState()
	if out.end = residuals(end); end.ActiveFlows != 0 || !equalResiduals(residuals(seed), out.end) {
		t.Fatalf("after releasing every flow %d stay active; ledger at the seed residuals: %v", end.ActiveFlows, equalResiduals(residuals(seed), out.end))
	}
	if b := seriesValue(telemetry.MetricProtectBackupsActive); b != 0 {
		t.Fatalf("%v backups active after releasing every flow", b)
	}
	if p := seriesValue(telemetry.MetricServerWorkerPanics) - panics; p != 0 {
		t.Fatalf("%v embed workers panicked", p)
	}
	return out
}

// applyWithContract applies f and holds the flow tables read either side
// of it to the protection contract: a flow active with an active backup
// when a fault lands is still active once the fault is applied — failed
// over, or short of its backup — never stranded. node-down is exempt: a
// link-disjoint pair may share a node. ApplyFault judges every flow before
// it returns and the run is the only source of faults, so the check is
// exact under any schedule. It returns how many covered flows it read.
func applyWithContract(t *testing.T, srv *server.Server, f network.Fault) int {
	t.Helper()
	covered := make(map[int64]bool)
	for _, fl := range srv.Flows() {
		covered[fl.ID] = fl.State == server.FlowStateActive && fl.BackupActive
	}
	if _, err := srv.ApplyFault(f); err != nil {
		t.Fatalf("apply %v: %v", f, err)
	}
	checked := 0
	for _, fl := range srv.Flows() {
		if !covered[fl.ID] {
			continue
		}
		checked++
		if fl.State != server.FlowStateActive && f.Kind != network.FaultNodeDown {
			t.Errorf("protection contract: flow %d held an active backup when %v landed but is %s (cause %q)", fl.ID, f, fl.State, fl.Cause)
		}
	}
	return checked
}

// TestServerChaosInvariant plays the survivability invariants through the
// chaos table: an unprotected and a half-protected population, each under
// a settled and a raced schedule. A settled row runs twice and both runs
// must make the identical decisions in the identical order.
func TestServerChaosInvariant(t *testing.T) {
	for _, row := range []chaosRow{
		{"unprotected/settled", false, true},
		{"unprotected/raced", false, false},
		{"protected/settled", true, true},
		{"protected/raced", true, false},
	} {
		t.Run(row.name, func(t *testing.T) {
			a := chaosRun(t, row)
			if a.accepted == 0 || len(a.log) == 0 {
				t.Fatalf("%d flows admitted, %d repair outcomes: the run tests nothing", a.accepted, len(a.log))
			}
			t.Logf("%d accepted, %v failovers, %d covered-flow checks, %d repair outcomes", a.accepted, a.failovers, a.checked, len(a.log))
			if !row.settled {
				return
			}
			if b := chaosRun(t, row); !reflect.DeepEqual(a, b) {
				t.Fatalf("two settled runs diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}
