package network

import (
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
)

// ledgersAgree fails unless a and b report identical usage and residuals
// for every edge and every deployed instance.
func ledgersAgree(t *testing.T, a, b *Ledger, context string) {
	t.Helper()
	g := a.net.G
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if math.Abs(a.EdgeUsed(id)-b.EdgeUsed(id)) > 1e-9 {
			t.Fatalf("%s: edge %d used %v vs %v", context, e, a.EdgeUsed(id), b.EdgeUsed(id))
		}
		if math.Abs(a.EdgeResidual(id)-b.EdgeResidual(id)) > 1e-9 {
			t.Fatalf("%s: edge %d residual %v vs %v", context, e, a.EdgeResidual(id), b.EdgeResidual(id))
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for f := VNFID(0); f <= a.net.Catalog.Merger(); f++ {
			au := a.InstanceUsed(graph.NodeID(v), f)
			bu := b.InstanceUsed(graph.NodeID(v), f)
			if math.Abs(au-bu) > 1e-9 {
				t.Fatalf("%s: instance f(%d)@%d used %v vs %v", context, f, v, au, bu)
			}
			ar := a.InstanceResidual(graph.NodeID(v), f)
			br := b.InstanceResidual(graph.NodeID(v), f)
			if ar != br && math.Abs(ar-br) > 1e-9 { // Inf == Inf for the dummy
				t.Fatalf("%s: instance f(%d)@%d residual %v vs %v", context, f, v, ar, br)
			}
		}
	}
}

// viewsBitEqual fails unless a and b report bit-identical residuals for
// every edge and every (node, category) pair.
func viewsBitEqual(t *testing.T, a, b *Ledger, context string) {
	t.Helper()
	g := a.net.G
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		if ar, br := a.EdgeResidual(id), b.EdgeResidual(id); math.Float64bits(ar) != math.Float64bits(br) {
			t.Fatalf("%s: edge %d residual %v vs %v", context, e, ar, br)
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		for f := VNFID(0); f <= a.net.Catalog.Merger(); f++ {
			ar, br := a.InstanceResidual(graph.NodeID(v), f), b.InstanceResidual(graph.NodeID(v), f)
			if math.Float64bits(ar) != math.Float64bits(br) {
				t.Fatalf("%s: instance f(%d)@%d residual %v vs %v", context, f, v, ar, br)
			}
		}
	}
}

// TestOverlayMatchesCloneProperty drives an overlay and a dense copy
// (Flatten) of the same base through a long random interleaving of
// reserve/release operations and checks their views never diverge — the
// overlay must be observably a full copy, just cheaper. After every step it
// also takes the overlay's snapshot twice, fresh (Snapshot) and into one
// recycled ledger that the previous step left scribbled on (SnapshotInto):
// the two must be the same view under the same epoch, and stay so.
func TestOverlayMatchesCloneProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := testNet(t)
		base := NewLedger(net)
		// Pre-commit some base usage so overlays start from a non-trivial view.
		if err := base.ReserveEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		if err := base.ReserveInstance(1, 2, 2); err != nil {
			t.Fatal(err)
		}

		overlay := base.Overlay()
		clone := base.Flatten()
		// Fault events are mirrored onto both roots (the overlay's base and
		// the independent clone); quarantine must keep the views in lockstep
		// exactly like reservations do.
		var live []Fault
		var recycled, fresh *Ledger // the overlay's snapshots of the previous step
		var pinned uint64           // the epoch both were taken under
		for step := 0; step < 400; step++ {
			if step == 200 {
				// What the server's rebase does: the live overlay moves onto a
				// new frozen root, and the recycled snapshot follows it there.
				base = overlay.Flatten()
				overlay = base.Overlay()
			}
			faultStep := false
			e := graph.EdgeID(rng.Intn(net.G.NumEdges()))
			node := graph.NodeID(rng.Intn(net.G.NumNodes()))
			f := VNFID(rng.Intn(int(net.Catalog.Merger()) + 1))
			amt := float64(rng.Intn(40)) / 4
			switch rng.Intn(6) {
			case 0:
				oe, ce := overlay.ReserveEdge(e, amt), clone.ReserveEdge(e, amt)
				if (oe == nil) != (ce == nil) {
					t.Fatalf("seed=%d step=%d: ReserveEdge(%d,%v) overlay err=%v clone err=%v", seed, step, e, amt, oe, ce)
				}
			case 1:
				overlay.ReleaseEdge(e, amt)
				clone.ReleaseEdge(e, amt)
			case 2:
				oe, ce := overlay.ReserveInstance(node, f, amt), clone.ReserveInstance(node, f, amt)
				if (oe == nil) != (ce == nil) {
					t.Fatalf("seed=%d step=%d: ReserveInstance(%d,%d,%v) overlay err=%v clone err=%v", seed, step, node, f, amt, oe, ce)
				}
			case 3:
				overlay.ReleaseInstance(node, f, amt)
				clone.ReleaseInstance(node, f, amt)
			case 4:
				faultStep = true
				var flt Fault
				switch rng.Intn(3) {
				case 0:
					flt = Fault{Kind: FaultLinkDown, Link: e}
				case 1:
					flt = Fault{Kind: FaultNodeDown, Node: node}
				case 2:
					flt = Fault{Kind: FaultLinkDegrade, Link: e, Fraction: float64(1+rng.Intn(4)) / 4}
				}
				oe, ce := overlay.ApplyFault(flt), clone.ApplyFault(flt)
				if (oe == nil) != (ce == nil) {
					t.Fatalf("seed=%d step=%d: ApplyFault(%v) overlay err=%v clone err=%v", seed, step, flt, oe, ce)
				}
				if oe == nil {
					live = append(live, flt)
				}
			case 5:
				if len(live) == 0 {
					continue
				}
				faultStep = true
				i := rng.Intn(len(live))
				flt := live[i]
				live = append(live[:i], live[i+1:]...)
				if err := overlay.RestoreFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: overlay RestoreFault(%v): %v", seed, step, flt, err)
				}
				if err := clone.RestoreFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: clone RestoreFault(%v): %v", seed, step, flt, err)
				}
			}
			ledgersAgree(t, overlay, clone, "during interleaving")

			if recycled != nil {
				// The step mutated the source, not the snapshots: a reservation
				// leaves both pins where they were, a fault moves both (it
				// changes every view of the family).
				re, fe := recycled.ViewEpoch(), fresh.ViewEpoch()
				if faultStep && (re == pinned || fe == pinned) {
					t.Fatalf("seed=%d step=%d: fault left a snapshot pinned (recycled %d, fresh %d, was %d)", seed, step, re, fe, pinned)
				}
				if !faultStep && (re != pinned || fe != pinned) {
					t.Fatalf("seed=%d step=%d: mutating the source moved a snapshot's pin (recycled %d, fresh %d, was %d)", seed, step, re, fe, pinned)
				}
				viewsBitEqual(t, recycled, fresh, "snapshots after the source moved on")
				// Leave the recycled ledger dirty: its user reserves on it (a
				// protected admission does), and none of it may show below.
				_ = recycled.ReserveEdge(e, amt)
				_ = recycled.ReserveInstance(node, f, amt)
				recycled.ReleaseEdge(graph.EdgeID(rng.Intn(net.G.NumEdges())), amt)
			}
			pinned = overlay.ViewEpoch()
			wasBase := overlay.base
			fresh, recycled = overlay.Snapshot(), overlay.SnapshotInto(recycled)
			if recycled.base != wasBase || fresh.base != wasBase {
				t.Fatalf("seed=%d step=%d: snapshot does not read through the overlay's base", seed, step)
			}
			viewsBitEqual(t, recycled, fresh, "SnapshotInto vs Snapshot")
			viewsBitEqual(t, recycled, overlay, "SnapshotInto vs its source")
			if re, fe := recycled.ViewEpoch(), fresh.ViewEpoch(); re != pinned || fe != pinned {
				t.Fatalf("seed=%d step=%d: pins differ: recycled %d, fresh %d, source %d", seed, step, re, fe, pinned)
			}
			if overlay.ViewEpoch() != pinned {
				t.Fatalf("seed=%d step=%d: taking snapshots moved the source's epoch", seed, step)
			}
		}
		// Mutating the recycled copy moves its own pin and nothing of the
		// source's.
		recycled.ReleaseEdge(0, 0.25)
		if recycled.ViewEpoch() == pinned || overlay.ViewEpoch() != pinned {
			t.Fatalf("seed=%d: mutating the recycled snapshot: its epoch %d, source's %d, was %d", seed, recycled.ViewEpoch(), overlay.ViewEpoch(), pinned)
		}
		ledgersAgree(t, overlay, clone, "after mutating the recycled snapshot")
		// Drain the outstanding faults so the commit phase below exercises
		// the original conflict-free path, and check restores are exact.
		for _, flt := range live {
			if err := overlay.RestoreFault(flt); err != nil {
				t.Fatalf("seed=%d: drain overlay RestoreFault(%v): %v", seed, flt, err)
			}
			if err := clone.RestoreFault(flt); err != nil {
				t.Fatalf("seed=%d: drain clone RestoreFault(%v): %v", seed, flt, err)
			}
		}
		if overlay.FaultsActive() || clone.FaultsActive() {
			t.Fatalf("seed=%d: quarantine not drained after restoring every live fault", seed)
		}
		ledgersAgree(t, overlay, clone, "after fault drain")

		// Snapshot must be an independent copy of the current view.
		snap := overlay.Snapshot()
		ledgersAgree(t, snap, clone, "snapshot")
		snap.ReleaseEdge(0, 100)
		ledgersAgree(t, overlay, clone, "after mutating snapshot")

		// Flatten must preserve the view as a root ledger.
		flat := overlay.Flatten()
		if flat.IsOverlay() {
			t.Fatal("Flatten returned an overlay")
		}
		ledgersAgree(t, flat, clone, "flatten")

		// Commit folds the deltas into the base: the base must now agree
		// with the clone, and the overlay (reading through) too.
		if err := overlay.Commit(); err != nil {
			t.Fatalf("seed=%d: commit: %v", seed, err)
		}
		ledgersAgree(t, base, clone, "base after commit")
		ledgersAgree(t, overlay, clone, "overlay after commit")
		if overlay.OverlayLen() != 0 {
			t.Fatalf("overlay not empty after commit: %d entries", overlay.OverlayLen())
		}
	}
}

func TestOverlayDiscard(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	if err := base.ReserveEdge(1, 4); err != nil {
		t.Fatal(err)
	}
	ov := base.Overlay()
	if err := ov.ReserveEdge(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := ov.ReserveInstance(0, 1, 3); err != nil {
		t.Fatal(err)
	}
	ov.Discard()
	if ov.OverlayLen() != 0 {
		t.Fatalf("OverlayLen after discard = %d", ov.OverlayLen())
	}
	ledgersAgree(t, ov, base, "after discard")
	// The overlay remains usable after a discard.
	if err := ov.ReserveEdge(1, 6); err != nil {
		t.Fatal(err)
	}
	if got := ov.EdgeUsed(1); math.Abs(got-10) > 1e-9 {
		t.Fatalf("EdgeUsed after re-reserve = %v, want 10", got)
	}
	if got := base.EdgeUsed(1); math.Abs(got-4) > 1e-9 {
		t.Fatalf("base EdgeUsed = %v, want 4 (must not see overlay)", got)
	}
}

// TestOverlayCommitConflict takes two overlays of one base, commits the
// first, and checks the second's now-infeasible reservation is rejected at
// commit time without corrupting the base — the server's stale-snapshot
// scenario.
func TestOverlayCommitConflict(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	a := base.Overlay()
	b := base.Overlay()
	if err := a.ReserveEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := b.ReserveEdge(0, 7); err != nil {
		t.Fatal(err)
	}
	if err := a.Commit(); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	if err := b.Commit(); err == nil {
		t.Fatal("second commit of conflicting reservation succeeded")
	}
	if got := base.EdgeUsed(0); math.Abs(got-7) > 1e-9 {
		t.Fatalf("base EdgeUsed = %v after rejected commit, want 7", got)
	}
	if b.OverlayLen() == 0 {
		t.Fatal("rejected overlay lost its deltas")
	}
}

// TestOverlayCommitObservesRelease interleaves a base-side release between
// an overlay's reservation and its commit: the commit's re-validation must
// see the freed capacity (admitting a reservation that was infeasible at
// snapshot time), and a negative overlay delta must fold as a release.
func TestOverlayCommitObservesRelease(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	if err := base.ReserveEdge(0, 8); err != nil {
		t.Fatal(err)
	}
	ov := base.Overlay()
	// Infeasible right now (residual 2 < 7): the overlay can't even book it.
	if err := ov.ReserveEdge(0, 7); err == nil {
		t.Fatal("overlay reserve beyond residual succeeded")
	}
	// Book the 2 that fit, then the base releases 6 before the commit.
	if err := ov.ReserveEdge(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := ov.ReserveEdge(0, 5); err == nil {
		t.Fatal("second overlay reserve should still exceed the stale residual")
	}
	base.ReleaseEdge(0, 6)
	if err := ov.Commit(); err != nil {
		t.Fatalf("commit after base release: %v", err)
	}
	if got := base.EdgeUsed(0); math.Abs(got-4) > 1e-9 {
		t.Fatalf("base EdgeUsed = %v, want 4 (8 - 6 + 2)", got)
	}

	// A release recorded in the overlay folds into the base on commit.
	ov2 := base.Overlay()
	ov2.ReleaseEdge(0, 3)
	if err := ov2.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := base.EdgeUsed(0); math.Abs(got-1) > 1e-9 {
		t.Fatalf("base EdgeUsed = %v after negative-delta commit, want 1", got)
	}
}

func TestCommitOnRootFails(t *testing.T) {
	base := NewLedger(testNet(t))
	if err := base.Commit(); err == nil {
		t.Fatal("Commit on root ledger succeeded")
	}
	base.Discard() // must be a harmless no-op
	if base.IsOverlay() {
		t.Fatal("root ledger claims to be an overlay")
	}
}

// TestStackedOverlayCommit folds a second-level overlay into a first-level
// one and that into the root.
func TestStackedOverlayCommit(t *testing.T) {
	net := testNet(t)
	base := NewLedger(net)
	mid := base.Overlay()
	top := mid.Overlay()
	if err := top.ReserveEdge(2, 4); err != nil {
		t.Fatal(err)
	}
	if err := top.ReserveInstance(2, 3, 2); err != nil {
		t.Fatal(err)
	}
	if err := top.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := mid.EdgeUsed(2); math.Abs(got-4) > 1e-9 {
		t.Fatalf("mid EdgeUsed = %v, want 4", got)
	}
	if got := base.EdgeUsed(2); got != 0 {
		t.Fatalf("base EdgeUsed = %v before mid commit, want 0", got)
	}
	if err := mid.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := base.EdgeUsed(2); math.Abs(got-4) > 1e-9 {
		t.Fatalf("base EdgeUsed = %v, want 4", got)
	}
	if got := base.InstanceUsed(2, 3); math.Abs(got-2) > 1e-9 {
		t.Fatalf("base InstanceUsed = %v, want 2", got)
	}
}
