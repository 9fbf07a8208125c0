package online

import (
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
)

func timed(rate, arrival, duration float64) TimedRequest {
	return TimedRequest{Request: chainReq(rate), Arrival: arrival, Duration: duration}
}

func TestChurnReusesReleasedCapacity(t *testing.T) {
	net := tinyNet() // f(1) capacity 2
	// Three sequential flows of rate 2: each saturates the instance, but
	// each departs before the next arrives — all three must be accepted,
	// whereas the static Run admits only one.
	reqs := []TimedRequest{
		timed(2, 0, 5),
		timed(2, 10, 5),
		timed(2, 20, 5),
	}
	report, err := RunChurn(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 3 {
		t.Fatalf("accepted %d, want 3 (capacity recycles)", report.Accepted)
	}
	if report.PeakActive != 1 {
		t.Fatalf("peak active = %d, want 1", report.PeakActive)
	}
	static, err := Run(net, []Request{chainReq(2), chainReq(2), chainReq(2)}, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if static.Accepted != 1 {
		t.Fatalf("static run accepted %d, want 1", static.Accepted)
	}
}

func TestChurnOverlappingFlowsContend(t *testing.T) {
	net := tinyNet()
	// Two overlapping rate-2 flows: only the first fits.
	reqs := []TimedRequest{
		timed(2, 0, 10),
		timed(2, 5, 10),
	}
	report, err := RunChurn(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 1 || report.Rejected != 1 {
		t.Fatalf("accepted/rejected = %d/%d, want 1/1", report.Accepted, report.Rejected)
	}
	if !report.Outcomes[0].Accepted || report.Outcomes[1].Accepted {
		t.Fatal("wrong flow admitted")
	}
}

func TestChurnDepartureBeforeArrivalAtSameInstant(t *testing.T) {
	net := tinyNet()
	// Flow 2 arrives exactly when flow 1 departs: it must fit.
	reqs := []TimedRequest{
		timed(2, 0, 10),
		timed(2, 10, 5),
	}
	report, err := RunChurn(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 2 {
		t.Fatalf("accepted %d, want 2 (departure processed first)", report.Accepted)
	}
}

// runDrained walks the timeline on a driver whose every applied transition
// is also framed into its WAL record, decoded and applied to a second
// state, as recovery would. After the last event — every flow departed,
// every fault restored — both must hold exactly the seed ledger's bits.
func runDrained(t *testing.T, net *network.Network, reqs []TimedRequest, sched faults.Schedule, embed Embedder) FailureReport {
	t.Helper()
	d := newDriver(net, reqs, embed)
	replayed := flowstate.New(net)
	var enc flowstate.Encoder
	d.applied = func(tr flowstate.Transition, ch flowstate.Change) {
		rec, ok, err := enc.Encode(tr, ch)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		back, err := flowstate.Decode(net, rec)
		if err == nil {
			_, err = replayed.Apply(back)
		}
		if err != nil {
			t.Fatalf("%s record of flow %d does not replay: %v", rec.Type, rec.Flow, err)
		}
	}
	if err := d.run(sched); err != nil {
		t.Fatal(err)
	}
	if d.state.Active() != 0 || replayed.Active() != 0 {
		t.Fatalf("%d flows (replayed: %d) still active after the last departure", d.state.Active(), replayed.Active())
	}
	seed := network.NewLedger(net)
	for name, st := range map[string]*flowstate.State{"driver": d.state, "replayed": replayed} {
		for _, e := range net.G.Edges() {
			if got, want := st.EdgeResidual(e.ID), seed.EdgeResidual(e.ID); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s state: edge %d residual %v after the drain, seed %v", name, e.ID, got, want)
			}
		}
		net.Instances(func(in network.Instance) {
			if got, want := st.InstanceResidual(in.Node, in.VNF), seed.InstanceResidual(in.Node, in.VNF); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s state: instance f(%d)@%d residual %v after the drain, seed %v", name, in.VNF, in.Node, got, want)
			}
		})
	}
	return d.report
}

func TestChurnLedgerDrainsToEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := netgen.Default()
	cfg.Nodes = 40
	cfg.VNFKinds = 6
	cfg.InstanceCapacity = 5
	net := netgen.MustGenerate(cfg, rng)
	reqs := RandomTimedRequests(net, sfcgen.Config{Size: 4, LayerWidth: 3, VNFKinds: 6},
		25, 1, 1, 1.0, 3.0, rng)
	report, err := RunChurn(net, reqs, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted == 0 {
		t.Skip("nothing admitted")
	}
	// The same timeline with the ledger in view: it drains to the seed, and
	// so does a state rebuilt from the transitions' records.
	report2 := runDrained(t, net, reqs, nil, core.EmbedMBBE)
	if report2.Accepted != report.Accepted || report2.TotalCost != report.TotalCost {
		t.Fatal("second churn run diverged: network state leaked")
	}
}

func TestChurnRejectsNegativeDuration(t *testing.T) {
	net := tinyNet()
	if _, err := RunChurn(net, []TimedRequest{timed(1, 0, -1)}, core.EmbedMBBE); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestRandomTimedRequestsMonotoneArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := netgen.Default()
	cfg.Nodes = 20
	cfg.VNFKinds = 6
	net := netgen.MustGenerate(cfg, rng)
	reqs := RandomTimedRequests(net, sfcgen.Config{Size: 3, LayerWidth: 3, VNFKinds: 6},
		30, 1, 1, 2.0, 5.0, rng)
	last := -1.0
	for i, r := range reqs {
		if r.Arrival < last {
			t.Fatalf("request %d arrives before its predecessor", i)
		}
		if r.Duration < 0 {
			t.Fatalf("request %d has negative duration", i)
		}
		last = r.Arrival
	}
}

func TestReleaseRestoresResiduals(t *testing.T) {
	net := tinyNet()
	ledger := network.NewLedger(net)
	p := &core.Problem{Net: net, Ledger: ledger, SFC: chainReq(1).SFC, Src: 0, Dst: 2, Rate: 1, Size: 1}
	res, err := core.EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	before := ledger.InstanceResidual(1, 1)
	if _, err := core.Commit(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if ledger.InstanceResidual(1, 1) >= before {
		t.Fatal("commit did not consume capacity")
	}
	if err := core.Release(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if got := ledger.InstanceResidual(1, 1); got != before {
		t.Fatalf("residual after release = %v, want %v", got, before)
	}
	for e := 0; e < net.G.NumEdges(); e++ {
		if used := ledger.EdgeUsed(graph.EdgeID(e)); used != 0 {
			t.Fatalf("edge %d still carries %v after release", e, used)
		}
	}
}
