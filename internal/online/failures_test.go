package online

import (
	"errors"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// diamondNet offers two disjoint paths 0→3, each hosting an f(1)
// instance, with node 1 strictly cheaper — embeds deterministically land
// there, and a fault on that path forces a reroute through node 2.
//
//	    1  (f1 $5)
//	  /   \
//	0       3
//	  \   /
//	    2  (f1 $6)
func diamondNet() *network.Network {
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

func diamondReq(arrival, duration float64) TimedRequest {
	return TimedRequest{
		Request: Request{
			SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
			Src: 0, Dst: 3, Rate: 1, Size: 1,
		},
		Arrival: arrival, Duration: duration,
	}
}

func TestRunFailuresRepairsReroutableFlow(t *testing.T) {
	net := diamondNet()
	reqs := []TimedRequest{diamondReq(0, 100)}
	sched := faults.Schedule{
		{At: 1, Duration: 10, Fault: network.Fault{Kind: network.FaultNodeDown, Node: 1}},
	}
	report, err := RunFailures(net, reqs, sched, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Accepted != 1 {
		t.Fatalf("accepted %d, want 1", report.Accepted)
	}
	if report.FaultsApplied != 1 || report.FaultsRestored != 1 {
		t.Fatalf("faults applied/restored = %d/%d, want 1/1", report.FaultsApplied, report.FaultsRestored)
	}
	if report.Repaired != 1 || report.Evicted != 0 || report.Revalidated != 0 {
		t.Fatalf("repaired/evicted/revalidated = %d/%d/%d, want 1/0/0",
			report.Repaired, report.Evicted, report.Revalidated)
	}
	if len(report.RepairLog) != 1 {
		t.Fatalf("repair log %+v, want one entry", report.RepairLog)
	}
	rec := report.RepairLog[0]
	if rec.Idx != 0 || rec.Outcome != "repaired" || rec.Time != 1 {
		t.Fatalf("repair record = %+v", rec)
	}

	// Determinism: the identical run must produce the identical log.
	again, err := RunFailures(net, reqs, sched, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if len(again.RepairLog) != len(report.RepairLog) || again.RepairLog[0] != report.RepairLog[0] {
		t.Fatalf("same-seed repair logs diverged: %+v vs %+v", again.RepairLog, report.RepairLog)
	}
	if again.Repaired != report.Repaired || again.Accepted != report.Accepted {
		t.Fatal("same-seed reports diverged")
	}
}

func TestRunFailuresEvictsWhenNoAlternative(t *testing.T) {
	net := tinyNet() // single path 0-1-2
	reqs := []TimedRequest{
		timed(1, 0, 100),
		// Arrives after the fault is restored AND the eviction freed the
		// instance: must be admitted.
		timed(2, 60, 10),
	}
	sched := faults.Schedule{
		{At: 1, Duration: 50, Fault: network.Fault{Kind: network.FaultLinkDown, Link: 0}},
	}
	report, err := RunFailures(net, reqs, sched, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Evicted != 1 || report.Repaired != 0 {
		t.Fatalf("evicted/repaired = %d/%d, want 1/0 (no alternative path)", report.Evicted, report.Repaired)
	}
	if len(report.RepairLog) != 1 || report.RepairLog[0].Outcome != "evicted" {
		t.Fatalf("repair log = %+v", report.RepairLog)
	}
	if report.Accepted != 2 {
		t.Fatalf("accepted %d, want 2 (second flow admitted post-restore)", report.Accepted)
	}
	if !report.Outcomes[1].Accepted {
		t.Fatal("post-restore arrival rejected: eviction did not free capacity")
	}
}

func TestRunFailuresRevalidatesUnaffectedFlow(t *testing.T) {
	net := tinyNet() // edge capacity 100
	reqs := []TimedRequest{timed(1, 0, 100)}
	sched := faults.Schedule{
		// Half of edge 0's 100 units quarantined; the rate-1 flow easily
		// still fits — it must survive in place, untouched.
		{At: 1, Duration: 10, Fault: network.Fault{Kind: network.FaultLinkDegrade, Link: 0, Fraction: 0.5}},
	}
	report, err := RunFailures(net, reqs, sched, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	if report.Revalidated != 1 || report.Repaired != 0 || report.Evicted != 0 {
		t.Fatalf("revalidated/repaired/evicted = %d/%d/%d, want 1/0/0",
			report.Revalidated, report.Repaired, report.Evicted)
	}
	if len(report.RepairLog) != 1 || report.RepairLog[0].Outcome != "revalidated" {
		t.Fatalf("repair log = %+v", report.RepairLog)
	}
}

// TestRunFailuresDrainsLedger is the offline analog of the server's
// drain-to-seed invariant: after the last departure and restore the
// driver's ledger, and one rebuilt from the transitions' records, hold the
// seed's bits — on the diamond and on the golden scenario, where flows are
// repaired and evicted on the way — and a rerun gives the same report.
func TestRunFailuresDrainsLedger(t *testing.T) {
	gnet, greqs, gsched := goldenScenario(t, 1)
	if g := runDrained(t, gnet, greqs, gsched, core.EmbedMBBE); g.Repaired == 0 || g.Evicted == 0 || g.Rejected == 0 {
		t.Fatalf("golden scenario exercises too little: %d repaired, %d evicted, %d rejected", g.Repaired, g.Evicted, g.Rejected)
	}

	net := diamondNet()
	reqs := []TimedRequest{
		diamondReq(0, 30), diamondReq(2, 30), diamondReq(4, 30), diamondReq(6, 30),
	}
	sched := faults.Schedule{
		{At: 5, Duration: 10, Fault: network.Fault{Kind: network.FaultNodeDown, Node: 1}},
		{At: 8, Duration: 4, Fault: network.Fault{Kind: network.FaultLinkDegrade, Link: 3, Fraction: 0.5}},
	}
	a, err := RunFailures(net, reqs, sched, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	b := runDrained(t, net, reqs, sched, core.EmbedMBBE)
	if a.Accepted != b.Accepted || a.TotalCost != b.TotalCost ||
		a.Repaired != b.Repaired || a.Evicted != b.Evicted || a.Revalidated != b.Revalidated {
		t.Fatalf("repeated runs diverged:\n%+v\n%+v", a, b)
	}
	if len(a.RepairLog) != len(b.RepairLog) {
		t.Fatalf("repair logs diverged: %+v vs %+v", a.RepairLog, b.RepairLog)
	}
	for i := range a.RepairLog {
		if a.RepairLog[i] != b.RepairLog[i] {
			t.Fatalf("repair log entry %d diverged: %+v vs %+v", i, a.RepairLog[i], b.RepairLog[i])
		}
	}
}

func TestRunFailuresRejectsBadSchedule(t *testing.T) {
	net := tinyNet()
	sched := faults.Schedule{
		{At: 0, Duration: 1, Fault: network.Fault{Kind: network.FaultLinkDown, Link: 99}},
	}
	if _, err := RunFailures(net, nil, sched, core.EmbedMBBE); err == nil {
		t.Fatal("out-of-range fault target accepted")
	}
}

// TestRunFailuresSameInstantOrder: at one timestamp a departure frees
// capacity first, then a restore returns quarantined capacity, then a fault
// strikes (and its repair runs), then an arrival is admitted on what is
// left. On the diamond (instances hold 4, links 10), everything at t=10:
//
//   - flow 0 (rate 3, on node 1 since t=0) departs;
//   - the degradation that has held 7 of edge 0's 10 units since t=0.5 —
//     flow 0 survived it, 3 fit beside 7 — is restored;
//   - node 2 goes down under flow 1 (rate 4, pushed there at t=1 because
//     node 1 had 1 unit left): its repair needs all of node 1 and 4 units
//     of edge 0, so both the departure and the restore must have happened;
//   - flow 2 arrives and finds node 1 taken and node 2 down.
//
// Strike before departure or before restore evicts flow 1; arrival before
// strike hands flow 2 node 1 and evicts flow 1.
func TestRunFailuresSameInstantOrder(t *testing.T) {
	rated := func(rate, arrival, duration float64) TimedRequest {
		r := diamondReq(arrival, duration)
		r.Rate = rate
		return r
	}
	reqs := []TimedRequest{rated(3, 0, 10), rated(4, 1, 100), rated(4, 10, 5)}
	sched := faults.Schedule{
		{At: 0.5, Duration: 9.5, Fault: network.Fault{Kind: network.FaultLinkDegrade, Link: 0, Fraction: 0.7}},
		{At: 10, Duration: 1, Fault: network.Fault{Kind: network.FaultNodeDown, Node: 2}},
	}
	report, err := RunFailures(diamondNet(), reqs, sched, core.EmbedMBBE)
	if err != nil {
		t.Fatal(err)
	}
	want := []RepairRecord{
		{Time: 0.5, Fault: sched[0].Fault, Idx: 0, Outcome: "revalidated"},
		{Time: 10, Fault: sched[1].Fault, Idx: 1, Outcome: "repaired"},
	}
	if len(report.RepairLog) != len(want) || report.RepairLog[0] != want[0] || report.RepairLog[1] != want[1] {
		t.Fatalf("repair log %+v, want %+v", report.RepairLog, want)
	}
	if report.Accepted != 2 || report.Outcomes[2].Accepted {
		t.Fatalf("accepted %d (flow 2: %v), want flows 0 and 1 only: the arrival at t=10 comes after the strike's repair",
			report.Accepted, report.Outcomes[2].Accepted)
	}
}

// TestRunFailuresRepairHardErrorEvicts: the one-rule-for-embedder-errors
// applies to arrivals; a repair re-embed that fails for any reason still
// ends in "evicted", not in an aborted run.
func TestRunFailuresRepairHardErrorEvicts(t *testing.T) {
	calls := 0
	flaky := func(p *core.Problem) (*core.Result, error) {
		if calls++; calls > 1 {
			return nil, errors.New("embedder bug")
		}
		return core.EmbedMBBE(p)
	}
	sched := faults.Schedule{{At: 1, Duration: 10, Fault: network.Fault{Kind: network.FaultNodeDown, Node: 1}}}
	report, err := RunFailures(diamondNet(), []TimedRequest{diamondReq(0, 100)}, sched, flaky)
	if err != nil {
		t.Fatalf("a failed repair aborted the run: %v", err)
	}
	if report.Evicted != 1 || len(report.RepairLog) != 1 || report.RepairLog[0].Outcome != "evicted" {
		t.Fatalf("evicted %d, log %+v; want the flow evicted", report.Evicted, report.RepairLog)
	}
}
