package network

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dagsfc/internal/graph"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// rowBits is the ledger's whole residual view, as the dense rows give it.
func rowBits(l *Ledger) []uint64 {
	return append(bits(l.EdgeResiduals(nil)), bits(l.InstanceResiduals(nil))...)
}

// nodeDown reports whether v's column is pinned: the dummy, infinite on a
// live node, reads exactly zero on a down one.
func nodeDown(l *Ledger, v graph.NodeID) bool { return l.InstanceResidual(v, Dummy) == 0 }

func TestFaultLinkDownRestoreExact(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	must(t, l.ReserveEdge(1, 4))
	before := l.EdgeResidual(1)
	if !almost(before, 6) {
		t.Fatalf("pre-fault residual = %v, want 6", before)
	}
	rows := rowBits(l)

	f := Fault{Kind: FaultLinkDown, Link: 1}
	must(t, l.ApplyFault(f))
	// Full capacity quarantined while 4 units are committed: capacity −
	// used − quarantined goes negative rather than clamping, so
	// reservations fail and the deficit is visible, in the rows too.
	if got := l.EdgeResidual(1); !almost(got, 10-4-10) {
		t.Fatalf("faulted residual = %v, want -4", got)
	}
	if got := l.EdgeResiduals(nil)[1]; got != l.EdgeResidual(1) {
		t.Fatalf("faulted row = %v, the scalar %v", got, l.EdgeResidual(1))
	}
	if err := l.ReserveEdge(1, 1); err == nil {
		t.Fatal("reserve on downed link succeeded")
	}

	must(t, l.RestoreFault(f))
	if got := l.EdgeResidual(1); got != before {
		t.Fatalf("post-restore residual = %v, want exactly %v", got, before)
	}
	if !slices.Equal(rowBits(l), rows) {
		t.Fatal("residual rows after the restore differ from before the fault")
	}
	if err := l.RestoreFault(f); err == nil {
		t.Fatal("unmatched restore succeeded")
	}
}

func TestFaultNodeDown(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	rows := rowBits(l)
	f := Fault{Kind: FaultNodeDown, Node: 2}
	must(t, l.ApplyFault(f))
	if !nodeDown(l, 2) || nodeDown(l, 1) {
		t.Fatalf("node 2 down=%v, node 1 down=%v", nodeDown(l, 2), nodeDown(l, 1))
	}
	// Node 2's incident links are edges 1 (1-2) and 2 (2-3); both fully out.
	for _, e := range []int{1, 2} {
		if got := l.EdgeResidual(graph.EdgeID(e)); !almost(got, 0) {
			t.Fatalf("edge %d residual = %v, want 0", e, got)
		}
	}
	if got := l.EdgeResidual(0); !almost(got, 10) {
		t.Fatalf("edge 0 residual = %v, want 10 (untouched)", got)
	}
	// Both instances hosted on node 2 (f2 and f3, capacity 5 each) are out.
	if got := l.InstanceResidual(2, 2); !almost(got, 0) {
		t.Fatalf("instance f2@2 residual = %v, want 0", got)
	}
	if got := l.InstanceResidual(2, 3); !almost(got, 0) {
		t.Fatalf("instance f3@2 residual = %v, want 0", got)
	}
	if got := l.InstanceResidual(1, 2); !almost(got, 5) {
		t.Fatalf("instance f2@1 residual = %v, want 5 (untouched)", got)
	}

	// Down twice (e.g. overlapping schedule entries): one restore leaves the
	// node down, the second brings everything back exactly.
	must(t, l.ApplyFault(f))
	must(t, l.RestoreFault(f))
	if !nodeDown(l, 2) {
		t.Fatal("node came back up with one of two faults still active")
	}
	must(t, l.RestoreFault(f))
	if nodeDown(l, 2) || !slices.Equal(rowBits(l), rows) {
		t.Fatal("quarantine not fully drained after matched restores")
	}
	if got := l.EdgeResidual(1); got != 10 {
		t.Fatalf("edge 1 residual = %v, want exactly 10", got)
	}
	if got := l.InstanceResidual(2, 3); got != 5 {
		t.Fatalf("instance f3@2 residual = %v, want exactly 5", got)
	}
}

func TestFaultLinkDegrade(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	f := Fault{Kind: FaultLinkDegrade, Link: 0, Fraction: 0.5}
	must(t, l.ApplyFault(f))
	if got := l.EdgeResidual(0); !almost(got, 5) {
		t.Fatalf("degraded residual = %v, want 5", got)
	}
	// Reservations within the degraded budget still work.
	if err := l.ReserveEdge(0, 5); err != nil {
		t.Fatalf("reserve within degraded capacity: %v", err)
	}
	if err := l.ReserveEdge(0, 1); err == nil {
		t.Fatal("reserve past degraded capacity succeeded")
	}
	must(t, l.RestoreFault(f))
	if got := l.EdgeResidual(0); got != 5 {
		t.Fatalf("post-restore residual = %v, want exactly 5 (10 cap - 5 used)", got)
	}
}

func TestFaultValidate(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	bad := []Fault{
		{Kind: FaultLinkDown, Link: 99},
		{Kind: FaultLinkDown, Link: -1},
		{Kind: FaultNodeDown, Node: 99},
		{Kind: FaultLinkDegrade, Link: 0, Fraction: 0},
		{Kind: FaultLinkDegrade, Link: 0, Fraction: 1.5},
		// Quarantining NaN would leave a residual no restore can repair.
		{Kind: FaultLinkDegrade, Link: 0, Fraction: math.NaN()},
		{Kind: FaultKind(42)},
	}
	for _, f := range bad {
		if err := l.ApplyFault(f); err == nil {
			t.Fatalf("ApplyFault(%+v) succeeded", f)
		}
	}
	if !slices.Equal(rowBits(l), rowBits(NewLedger(net))) || l.ViewEpoch() != 0 {
		t.Fatal("rejected faults left quarantine behind")
	}
	if s := (Fault{Kind: FaultLinkDegrade, Link: 7, Fraction: 0.5}).String(); !strings.Contains(s, "link-degrade 7 0.5") {
		t.Fatalf("String() = %q", s)
	}
}

// TestFaultStaysOnItsLedger checks a fault is part of one ledger's value:
// one applied to the live ledger leaves a snapshot taken before it, and
// that snapshot's own snapshot, bit for bit as they were; one applied to a
// copy never reaches its source; and each restore returns only its own
// ledger to the pre-fault view, exactly.
func TestFaultStaysOnItsLedger(t *testing.T) {
	net := testNet(t)
	live := NewLedger(net)
	must(t, live.ReserveEdge(2, 3))
	snap := live.Snapshot()
	nested := snap.Snapshot()
	before := rowBits(live)

	f := Fault{Kind: FaultLinkDegrade, Link: 2, Fraction: 1}
	must(t, live.ApplyFault(f))
	if got := live.EdgeResidual(2); !almost(got, 10-3-10) {
		t.Fatalf("live residual = %v, want -3", got)
	}
	for name, l := range map[string]*Ledger{"snapshot": snap, "snapshot of a snapshot": nested} {
		if !slices.Equal(rowBits(l), before) {
			t.Fatalf("a fault on the live ledger moved a %s taken before it", name)
		}
	}

	g := Fault{Kind: FaultNodeDown, Node: 1}
	must(t, snap.ApplyFault(g))
	if !nodeDown(snap, 1) || nodeDown(live, 1) || nodeDown(nested, 1) {
		t.Fatal("a fault on a copy reached its source or its own copy, or missed the copy")
	}
	if err := nested.RestoreFault(f); err == nil {
		t.Fatal("restore of a fault this ledger never saw succeeded")
	}

	must(t, live.RestoreFault(f))
	must(t, snap.RestoreFault(g))
	for name, l := range map[string]*Ledger{"live": live, "snapshot": snap, "snapshot of a snapshot": nested} {
		if !slices.Equal(rowBits(l), before) {
			t.Fatalf("%s: residuals after the restores differ from before the faults", name)
		}
	}
}
