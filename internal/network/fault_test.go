package network

import (
	"math"
	"strings"
	"testing"

	"dagsfc/internal/graph"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestFaultLinkDownRestoreExact(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveEdge(1, 4); err != nil {
		t.Fatal(err)
	}
	before := l.EdgeResidual(1)
	if !almost(before, 6) {
		t.Fatalf("pre-fault residual = %v, want 6", before)
	}

	f := Fault{Kind: FaultLinkDown, Link: 1}
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if got := l.EdgeQuarantined(1); !almost(got, 10) {
		t.Fatalf("EdgeQuarantined = %v, want 10", got)
	}
	// Full capacity quarantined while 4 units are committed: residual goes
	// negative rather than clamping, so reservations fail and the deficit
	// is visible.
	if got := l.EdgeResidual(1); !almost(got, -4) {
		t.Fatalf("faulted residual = %v, want -4", got)
	}
	if err := l.ReserveEdge(1, 1); err == nil {
		t.Fatal("reserve on downed link succeeded")
	}
	if !l.FaultsActive() {
		t.Fatal("FaultsActive = false with a live fault")
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

func TestFaultNodeDown(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	f := Fault{Kind: FaultNodeDown, Node: 2}
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if !l.NodeDown(2) || l.NodeDown(1) {
		t.Fatalf("NodeDown(2)=%v NodeDown(1)=%v", l.NodeDown(2), l.NodeDown(1))
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
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if err := l.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if !l.NodeDown(2) {
		t.Fatal("node came back up with one of two faults still active")
	}
	if err := l.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if l.NodeDown(2) || l.FaultsActive() {
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
	if err := l.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
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
	if err := l.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
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
		{Kind: FaultKind(42)},
	}
	for _, f := range bad {
		if err := l.ApplyFault(f); err == nil {
			t.Fatalf("ApplyFault(%+v) succeeded", f)
		}
	}
	if l.FaultsActive() {
		t.Fatal("rejected faults left quarantine behind")
	}
	if s := (Fault{Kind: FaultLinkDegrade, Link: 7, Fraction: 0.5}).String(); !strings.Contains(s, "link-degrade 7 0.5") {
		t.Fatalf("String() = %q", s)
	}
}

// TestOverlayCommitFailsAcrossFault pins the stale-snapshot semantics the
// server relies on: a speculative overlay taken before a fault must fail
// its re-validating Commit once the fault has quarantined the capacity it
// reserved, and succeed again after the restore.
func TestOverlayCommitFailsAcrossFault(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	ov := base.Overlay()
	if err := ov.ReserveEdge(0, 7); err != nil {
		t.Fatal(err)
	}

	f := Fault{Kind: FaultLinkDown, Link: 0}
	// Applying through the overlay must land on the root.
	if err := ov.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if !base.FaultsActive() {
		t.Fatal("fault applied via overlay not visible on root")
	}
	if err := ov.Commit(); err == nil {
		t.Fatal("commit across a fault succeeded")
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
	if got := base.EdgeUsed(0); !almost(got, 7) {
		t.Fatalf("base EdgeUsed = %v, want 7", got)
	}
}

// TestFaultVisibleThroughSnapshots checks a snapshot taken before the fault
// observes post-fault residuals immediately (it shares the root), while a
// Flatten taken before the fault keeps the pre-fault view (independent root).
func TestFaultVisibleThroughSnapshots(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	live := base.Overlay()
	snap := live.Snapshot()
	clone := base.Flatten()

	f := Fault{Kind: FaultLinkDegrade, Link: 2, Fraction: 1}
	if err := base.ApplyFault(f); err != nil {
		t.Fatal(err)
	}
	if got := snap.EdgeResidual(2); !almost(got, 0) {
		t.Fatalf("snapshot residual = %v, want 0 (shares faulted root)", got)
	}
	if got := clone.EdgeResidual(2); !almost(got, 10) {
		t.Fatalf("clone residual = %v, want 10 (independent root)", got)
	}

	// A rebase (Flatten) while the fault is live must carry the quarantine.
	flat := live.Flatten()
	if got := flat.EdgeResidual(2); !almost(got, 0) {
		t.Fatalf("flattened residual = %v, want 0", got)
	}
	if !flat.FaultsActive() {
		t.Fatal("Flatten dropped the active quarantine")
	}
	// Restoring on the original root must not disturb the flattened copy,
	// which captured the immutable table at flatten time.
	if err := base.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if !flat.FaultsActive() {
		t.Fatal("restore on source root leaked into flattened ledger")
	}
	if err := flat.RestoreFault(f); err != nil {
		t.Fatal(err)
	}
	if flat.FaultsActive() {
		t.Fatal("flattened ledger quarantine not drained")
	}
}
