package server_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

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

// chaosRun is one full deterministic chaos scenario: a seeded network and
// workload, a seeded fault schedule applied event by event (waiting for
// the repair controller to settle between events), then full teardown.
// It returns everything two identical runs must agree on.
type chaosOutcome struct {
	accepted int
	log      []repairOutcome
	faults   server.FaultState
	seed     []float64
	end      []float64
}

func chaosRun(t *testing.T) chaosOutcome {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ncfg := netgen.Default()
	ncfg.Nodes = 24
	ncfg.VNFKinds = 5
	ncfg.InstanceCapacity = 4
	net := netgen.MustGenerate(ncfg, rng)

	srv, err := server.New(fastRepairs(server.Config{Net: net, Workers: 2}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	out := chaosOutcome{seed: residuals(srv.NetworkState())}

	// Sequential submissions keep the accept set deterministic.
	scfg := sfcgen.Config{Size: 3, LayerWidth: 3, VNFKinds: 5}
	for i := 0; i < 20; i++ {
		dag := sfcgen.MustGenerate(scfg, rng)
		_, err := srv.Submit(ctx, server.FlowRequest{
			SFC: sfc.Format(dag),
			Src: rng.Intn(ncfg.Nodes), Dst: rng.Intn(ncfg.Nodes),
			Rate: 1, Size: 1,
		})
		if err == nil {
			out.accepted++
		}
	}

	sched, err := faults.Generate(faults.GenConfig{
		Nodes: ncfg.Nodes, Edges: net.G.NumEdges(),
		Count: 6, MeanGap: 1, MeanHold: 2, NodeFrac: 0.4, DegradeFrac: 0.3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range sched.Events() {
		if ev.Apply {
			_, err = srv.ApplyFault(ev.Fault)
		} else {
			_, err = srv.RestoreFault(ev.Fault)
		}
		if err != nil {
			t.Fatalf("event %+v: %v", ev, err)
		}
		// Settle: every consequence of this event reaches a terminal state
		// before the next one fires, which pins the repair order. The
		// gauges then state the settled facts.
		waitFor(t, func() bool { return srv.PendingRepairs() == 0 })
		if got, want := seriesValue(telemetry.MetricFaultsActive), len(srv.Faults().Active); got != float64(want) {
			t.Fatalf("after %+v: faults active gauge = %v, want %d", ev, got, want)
		}
		if got, want := seriesValue(telemetry.MetricServerActiveFlows), srv.ActiveFlows(); got != float64(want) {
			t.Fatalf("after %+v: active flows gauge = %v, want %d", ev, got, want)
		}
	}

	// The schedule restores every incident, so no fault is active and the
	// chaos invariant holds: every surviving flow still validates.
	if bad := srv.RevalidateFlows(); len(bad) != 0 {
		t.Fatalf("flows failing revalidation after chaos: %v", bad)
	}
	out.log = repairOutcomes(srv)
	out.faults = srv.Faults()

	for _, f := range srv.Flows() {
		if _, err := srv.Release(f.ID); err != nil {
			t.Fatalf("release %d: %v", f.ID, err)
		}
	}
	out.end = residuals(srv.NetworkState())
	return out
}

// TestServerChaosInvariant is the PR's acceptance check: after a seeded
// fault schedule fully plays out, surviving flows re-validate, the ledger
// drains to the exact seed residuals, and a second identical run makes
// the identical repair/eviction decisions in the identical order.
func TestServerChaosInvariant(t *testing.T) {
	a := chaosRun(t)

	if a.accepted == 0 {
		t.Fatal("chaos run admitted nothing")
	}
	if len(a.log) == 0 {
		t.Fatal("chaos run exercised no repairs — schedule too gentle to test anything")
	}
	if len(a.faults.Active) != 0 || a.faults.Applied != 6 || a.faults.Restored != 6 {
		t.Fatalf("fault accounting after full schedule: %+v", a.faults)
	}
	if !equalResiduals(a.seed, a.end) {
		t.Fatalf("ledger did not drain to seed residuals:\nseed %v\nend  %v", a.seed, a.end)
	}

	b := chaosRun(t)
	if a.accepted != b.accepted {
		t.Fatalf("accept counts diverged: %d vs %d", a.accepted, b.accepted)
	}
	if len(a.log) != len(b.log) {
		t.Fatalf("repair logs diverged in length: %d vs %d\n%+v\n%+v", len(a.log), len(b.log), a.log, b.log)
	}
	for i := range a.log {
		if a.log[i] != b.log[i] {
			t.Fatalf("repair log entry %d diverged: %+v vs %+v", i, a.log[i], b.log[i])
		}
	}
	if !equalResiduals(a.end, b.end) {
		t.Fatal("final residuals diverged between identical runs")
	}
}
