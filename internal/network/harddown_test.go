package network

import (
	"math"
	"slices"
	"testing"

	"dagsfc/internal/graph"
)

// TestFaultEdgeDownPinAndRestore covers the hard-failure link kind: the
// residual is pinned to exactly zero (not driven negative like the
// quarantine kinds), reservations fail across it, and restore is
// float-exact because no capacity amount ever moved.
func TestFaultEdgeDownPinAndRestore(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	must(t, l.ReserveEdge(1, 4))
	before, rows := l.EdgeResidual(1), rowBits(l)

	f := Fault{Kind: FaultEdgeDown, Link: 1}
	must(t, l.ApplyFault(f))
	// Unlike link-down (which quarantines the capacity amount and reports
	// -4 here), the hard failure pins to the literal zero, in the rows too,
	// and touches no other edge.
	if got := l.EdgeResidual(1); got != 0 {
		t.Fatalf("downed residual = %v, want exactly 0", got)
	}
	if got := l.EdgeResiduals(nil); got[1] != 0 || got[0] != 10 {
		t.Fatalf("rows %v, want edge 1 pinned at 0 and edge 0 at 10", got)
	}
	if err := l.ReserveEdge(1, 1); err == nil {
		t.Fatal("reserve on downed edge succeeded")
	}

	// Overlapping downs: one restore leaves the edge pinned.
	must(t, l.ApplyFault(f))
	must(t, l.RestoreFault(f))
	if got := l.EdgeResidual(1); got != 0 {
		t.Fatalf("edge came back up (residual %v) with one of two faults still active", got)
	}
	must(t, l.RestoreFault(f))
	if got := l.EdgeResidual(1); got != before {
		t.Fatalf("post-restore residual = %v, want exactly %v", got, before)
	}
	if !slices.Equal(rowBits(l), rows) {
		t.Fatal("residual rows after the full restore differ from before the fault")
	}
	if err := l.RestoreFault(f); err == nil {
		t.Fatal("unmatched restore succeeded")
	}
}

// TestFaultEdgeDownCommitAcross pins what a speculative embed's copy and
// the commit check see of an edge-down applied after the copy was taken:
// the copy keeps its pre-fault view, so a reservation across the edge
// succeeds there, and the live ledger, which carries the fault, refuses the
// same reservation until the restore.
func TestFaultEdgeDownCommitAcross(t *testing.T) {
	net := testNet(t)
	live := NewLedger(net)
	snap := live.Snapshot()
	f := Fault{Kind: FaultEdgeDown, Link: 0}
	must(t, live.ApplyFault(f))
	if err := snap.ReserveEdge(0, 7); err != nil {
		t.Fatalf("a pre-fault copy saw the live ledger's fault: %v", err)
	}
	if err := live.ReserveEdge(0, 7); err == nil {
		t.Fatal("reservation across edge-down succeeded on the faulted ledger")
	}
	if got := live.EdgeUsed(0); got != 0 {
		t.Fatalf("the copy's or the refused reservation reached the live ledger: EdgeUsed = %v", got)
	}
	must(t, live.RestoreFault(f))
	if err := live.ReserveEdge(0, 7); err != nil {
		t.Fatalf("reservation after restore: %v", err)
	}
}

// TestFaultNodeDownPinsExactZero checks the node-down hard-pin: with
// committed usage on an incident edge and a hosted instance, both report
// the literal zero while the node is down (pre-pin semantics reported a
// negative deficit), and restore is float-exact.
func TestFaultNodeDownPinsExactZero(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	must(t, l.ReserveEdge(1, 4))
	must(t, l.ReserveInstance(2, 2, 3))
	edgeBefore, instBefore := l.EdgeResidual(1), l.InstanceResidual(2, 2)

	f := Fault{Kind: FaultNodeDown, Node: 2}
	must(t, l.ApplyFault(f))
	if got := l.EdgeResidual(1); got != 0 {
		t.Fatalf("incident edge residual = %v, want exactly 0", got)
	}
	if got := l.EdgeResiduals(nil)[1]; got != 0 {
		t.Fatalf("incident edge's row = %v, want exactly 0", got)
	}
	if got := l.InstanceResidual(2, 2); got != 0 {
		t.Fatalf("hosted instance residual = %v, want exactly 0", got)
	}
	must(t, l.RestoreFault(f))
	if got := l.EdgeResidual(1); got != edgeBefore {
		t.Fatalf("post-restore edge residual = %v, want exactly %v", got, edgeBefore)
	}
	if got := l.InstanceResidual(2, 2); got != instBefore {
		t.Fatalf("post-restore instance residual = %v, want exactly %v", got, instBefore)
	}
}

// TestNodeDownLeavesDegradedLinkBitExact: a node-down pins its incident
// links and moves no capacity amount, so a degraded link incident to the
// node reads the same bits before the node-down and after its restore.
func TestNodeDownLeavesDegradedLinkBitExact(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1, 1)
	l := NewLedger(New(g, Catalog{N: 1}))
	must(t, l.ApplyFault(Fault{Kind: FaultLinkDegrade, Link: 0, Fraction: 0.1}))
	before := math.Float64bits(l.EdgeResidual(0))
	down := Fault{Kind: FaultNodeDown, Node: 1}
	must(t, l.ApplyFault(down))
	if got := l.EdgeResidual(0); got != 0 {
		t.Fatalf("residual under the node-down = %v, want exactly 0", got)
	}
	must(t, l.RestoreFault(down))
	if got := l.EdgeResidual(0); math.Float64bits(got) != before {
		t.Fatalf("degraded link reads %v after the node-down's restore, %v before it", got, math.Float64frombits(before))
	}
	if got := l.EdgeResiduals(nil)[0]; math.Float64bits(got) != before {
		t.Fatalf("degraded link's row reads %v after the restore, %v before it", got, math.Float64frombits(before))
	}
}

// TestEdgeResidualsBitExactUnderPins extends the bulk-export contract to
// hard failures: with usage, quarantine, edge-down and node-down all live
// at once, EdgeResiduals must agree bitwise with the scalar EdgeResidual on
// every edge.
func TestEdgeResidualsBitExactUnderPins(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	must(t, l.ReserveEdge(0, 3))
	must(t, l.ReserveEdge(1, 4))
	for _, f := range []Fault{
		{Kind: FaultLinkDegrade, Link: 0, Fraction: 0.3},
		{Kind: FaultEdgeDown, Link: 1},
		{Kind: FaultNodeDown, Node: 2},
	} {
		must(t, l.ApplyFault(f))
	}
	snap := l.Snapshot()
	must(t, snap.ReleaseEdge(0, 1))
	for _, led := range []*Ledger{l, snap} {
		bulk := led.EdgeResiduals(nil)
		for e := range bulk {
			if want := led.EdgeResidual(graph.EdgeID(e)); bulk[e] != want {
				t.Fatalf("edge %d: bulk %v != scalar %v", e, bulk[e], want)
			}
		}
	}
}

// TestInstanceResidualsBitExactUnderPins is the instance companion: with
// usage, quarantined capacity and node-down pins live at once (one node hit
// twice) — a down node's whole column, dummy included, reads exactly zero —
// InstanceResiduals must agree bitwise with the scalar InstanceResidual on
// every pair, through a snapshot too.
func TestInstanceResidualsBitExactUnderPins(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	must(t, l.ReserveInstance(2, 2, graph.ToGrid(1.7)))
	must(t, l.ReserveInstance(0, 1, graph.ToGrid(0.3)))
	for _, f := range []Fault{
		{Kind: FaultNodeDown, Node: 2},
		{Kind: FaultNodeDown, Node: 2}, // a second fault on the same node
		{Kind: FaultNodeDown, Node: 3},
		{Kind: FaultLinkDegrade, Link: 0, Fraction: 0.3},
	} {
		must(t, l.ApplyFault(f))
	}
	snap := l.Snapshot()
	must(t, snap.ReleaseInstance(2, 2, 0.5))
	must(t, snap.ReserveInstance(0, 1, graph.ToGrid(0.1)))
	checkInstanceResiduals(t, "live", l)
	checkInstanceResiduals(t, "snapshot", snap)
	checkInstanceResiduals(t, "snapshot of a snapshot", snap.Snapshot())
	if got := snap.InstanceResiduals(nil)[int(Dummy)*net.G.NumNodes()+2]; got != 0 {
		t.Fatalf("dummy on a down node reads %v in the rows, the scalar path's 0", got)
	}
	// One of node 2's faults restored: still pinned, and still bit-equal.
	must(t, l.RestoreFault(Fault{Kind: FaultNodeDown, Node: 2}))
	checkInstanceResiduals(t, "snapshot, one fault restored", snap)
}

func TestFaultEdgeDownValidate(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	for _, f := range []Fault{
		{Kind: FaultEdgeDown, Link: 99},
		{Kind: FaultEdgeDown, Link: -1},
	} {
		if err := l.ApplyFault(f); err == nil {
			t.Fatalf("ApplyFault(%+v) succeeded", f)
		}
	}
	if s := (Fault{Kind: FaultEdgeDown, Link: 7}).String(); s != "edge-down 7" {
		t.Fatalf("String() = %q", s)
	}
}
