package network

import (
	"testing"

	"dagsfc/internal/graph"
)

// TestFaultEdgeDownPinAndRestore covers the hard-failure link kind: the
// residual is pinned to exactly zero (not driven negative like the
// quarantine kinds), reservations and overlay commits fail across it, and
// restore is float-exact because no capacity amount ever moved.
func TestFaultEdgeDownPinAndRestore(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveEdge(1, 4); err != nil {
		t.Fatal(err)
	}
	before := l.EdgeResidual(1)

	f := Fault{Kind: FaultEdgeDown, Link: 1}
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if !l.EdgeDown(1) || l.EdgeDown(0) {
		t.Fatalf("EdgeDown(1)=%v EdgeDown(0)=%v", l.EdgeDown(1), l.EdgeDown(0))
	}
	// Unlike link-down (which quarantines the capacity amount and reports
	// -4 here), the hard failure pins to the literal zero.
	if got := l.EdgeResidual(1); got != 0 {
		t.Fatalf("downed residual = %v, want exactly 0", got)
	}
	// No capacity was quarantined — the pin is a count, not an amount.
	if got := l.EdgeQuarantined(1); got != 0 {
		t.Fatalf("EdgeQuarantined = %v, want 0 (pure pin)", got)
	}
	if err := l.ReserveEdge(1, 1); err == nil {
		t.Fatal("reserve on downed edge succeeded")
	}
	if !l.FaultsActive() {
		t.Fatal("FaultsActive = false with a live edge-down")
	}

	// Overlapping downs: one restore leaves the edge pinned.
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if !l.EdgeDown(1) {
		t.Fatal("edge came back up with one of two faults still active")
	}
	if err := l.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if got := l.EdgeResidual(1); got != before {
		t.Fatalf("post-restore residual = %v, want exactly %v", got, before)
	}
	if l.FaultsActive() {
		t.Fatal("FaultsActive = true after full restore")
	}
	if err := l.RestoreFault(f); err == nil {
		t.Fatal("unmatched restore succeeded")
	}
}

// TestFaultEdgeDownCommitAcross pins the serving-layer semantics: a
// speculative overlay taken before an edge-down must fail its re-validating
// commit while the pin is live and succeed after the restore.
func TestFaultEdgeDownCommitAcross(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	ov := base.Overlay()
	if err := ov.ReserveEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	f := Fault{Kind: FaultEdgeDown, Link: 0}
	if err := ov.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if err := ov.Commit(); err == nil {
		t.Fatal("commit across edge-down succeeded")
	}
	if got := base.EdgeUsed(0); got != 0 {
		t.Fatalf("failed commit touched the base: EdgeUsed = %v", got)
	}
	if err := base.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if err := ov.Commit(); err != nil {
		t.Fatalf("commit after restore: %v", err)
	}
}

// TestFaultNodeDownPinsExactZero checks the node-down hard-pin: with
// committed usage on an incident edge and a hosted instance, both report
// the literal zero while the node is down (pre-pin semantics reported a
// negative deficit), and restore is float-exact.
func TestFaultNodeDownPinsExactZero(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveEdge(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveInstance(2, 2, 3); err != nil {
		t.Fatal(err)
	}
	edgeBefore, instBefore := l.EdgeResidual(1), l.InstanceResidual(2, 2)

	f := Fault{Kind: FaultNodeDown, Node: 2}
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if got := l.EdgeResidual(1); got != 0 {
		t.Fatalf("incident edge residual = %v, want exactly 0", got)
	}
	if !l.EdgeDown(1) {
		t.Fatal("EdgeDown(1) = false with endpoint node down")
	}
	if got := l.InstanceResidual(2, 2); got != 0 {
		t.Fatalf("hosted instance residual = %v, want exactly 0", got)
	}
	if err := l.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if got := l.EdgeResidual(1); got != edgeBefore {
		t.Fatalf("post-restore edge residual = %v, want exactly %v", got, edgeBefore)
	}
	if got := l.InstanceResidual(2, 2); got != instBefore {
		t.Fatalf("post-restore instance residual = %v, want exactly %v", got, instBefore)
	}
}

// TestEdgeResidualsBitExactUnderPins extends the bulk-export contract to
// hard failures: with usage, quarantine, edge-down and node-down all live
// at once, EdgeResiduals must agree bitwise with the scalar EdgeResidual on
// every edge.
func TestEdgeResidualsBitExactUnderPins(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveEdge(1, 4); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{
		{Kind: FaultLinkDegrade, Link: 0, Fraction: 0.3},
		{Kind: FaultEdgeDown, Link: 1},
		{Kind: FaultNodeDown, Node: 2},
	} {
		if err := l.ApplyFault(f); err != nil {
			t.Fatal(err)
		}
	}
	ov := l.Overlay()
	ov.ReleaseEdge(0, 1)
	for _, led := range []*Ledger{l, ov} {
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
// every pair, through an overlay too.
func TestInstanceResidualsBitExactUnderPins(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveInstance(2, 2, 1.7); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveInstance(0, 1, 0.3); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Fault{
		{Kind: FaultNodeDown, Node: 2},
		{Kind: FaultNodeDown, Node: 2}, // a second fault on the same node
		{Kind: FaultNodeDown, Node: 3},
		{Kind: FaultLinkDegrade, Link: 0, Fraction: 0.3},
	} {
		if err := l.ApplyFault(f); err != nil {
			t.Fatal(err)
		}
	}
	ov := l.Overlay()
	ov.ReleaseInstance(2, 2, 0.5)
	if err := ov.ReserveInstance(0, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	checkInstanceResiduals(t, "root", l)
	checkInstanceResiduals(t, "overlay", ov)
	checkInstanceResiduals(t, "flattened", ov.Flatten())
	if got := ov.InstanceResiduals(nil)[int(Dummy)*net.G.NumNodes()+2]; got != 0 {
		t.Fatalf("dummy on a down node reads %v in the rows, the scalar path's 0", got)
	}
	// One of node 2's faults restored: still pinned, and still bit-equal.
	if err := l.RestoreFault(Fault{Kind: FaultNodeDown, Node: 2}); err != nil {
		t.Fatal(err)
	}
	checkInstanceResiduals(t, "overlay, one fault restored", ov)
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
