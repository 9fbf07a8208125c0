package network

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dagsfc/internal/graph"
)

// viewsBitEqual fails unless a and b answer every query bit-identically:
// usage and residual of every edge and every (node, category) pair of the
// rows, and every entry of the dense residual rows.
func viewsBitEqual(t *testing.T, a, b *Ledger, context string) {
	t.Helper()
	if !slices.Equal(usageBits(a), usageBits(b)) {
		t.Fatalf("%s: usage differs", context)
	}
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
	if !slices.Equal(bits(a.EdgeResiduals(nil)), bits(b.EdgeResiduals(nil))) {
		t.Fatalf("%s: EdgeResiduals rows differ", context)
	}
	if !slices.Equal(bits(a.InstanceResiduals(nil)), bits(b.InstanceResiduals(nil))) {
		t.Fatalf("%s: InstanceResiduals rows differ", context)
	}
}

func bits(xs []float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// usageBits is the ledger's committed usage through the scalar queries —
// what reservations move and faults do not.
func usageBits(l *Ledger) []uint64 {
	var out []uint64
	for e := 0; e < l.net.G.NumEdges(); e++ {
		out = append(out, math.Float64bits(l.EdgeUsed(graph.EdgeID(e))))
	}
	for v := 0; v < l.net.G.NumNodes(); v++ {
		for f := VNFID(0); f <= l.net.Catalog.Merger(); f++ {
			out = append(out, math.Float64bits(l.InstanceUsed(graph.NodeID(v), f)))
		}
	}
	return out
}

// TestDenseLedgerProperty drives a live ledger through a long random run of
// reservations, releases, faults and restores, beside a held snapshot that
// makes reservations of its own, and after every step checks the dense
// contract: (a) a fresh Snapshot and a SnapshotInto over a ledger the
// previous step scribbled on answer every query, and the epoch, exactly as
// the live ledger does; (b) reservations on a copy never move the live
// ledger, nor the live ledger's a copy; (c) a fault applied after a copy
// was taken shows in it — it stays bit-equal to a mirror of its own in a
// separate family that is handed the same faults — and once no fault is
// active it reads exactly as if there had never been one; (d) ViewEpoch
// moves on every accepted mutation and every fault, and on nothing else;
// (e) ExportState → NewLedgerFromState rebuilds the live ledger to the bit.
func TestDenseLedgerProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := testNet(t)
		live := NewLedger(net)
		var active []Fault
		// withFaults is a fresh family holding st and the active faults.
		withFaults := func(st LedgerState) *Ledger {
			l, err := NewLedgerFromState(net, st)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range active {
				if err := l.ApplyFault(f); err != nil {
					t.Fatal(err)
				}
			}
			return l
		}
		held := live.Snapshot()
		mirror := withFaults(held.ExportState())
		recycled := new(Ledger)

		for step := 0; step < 400; step++ {
			e := graph.EdgeID(rng.Intn(net.G.NumEdges()))
			node := graph.NodeID(rng.Intn(net.G.NumNodes()))
			f := VNFID(rng.Intn(int(net.Catalog.Merger()) + 1))
			amt := float64(rng.Intn(40)) / 4
			liveEpoch, heldEpoch := live.ViewEpoch(), held.ViewEpoch()
			liveUse, heldUse := usageBits(live), usageBits(held)
			liveMoved, heldMoved, faulted := false, false, false
			// reserveOrRelease applies one of the four mutations to l and
			// reports whether it should move l's epoch.
			reserveOrRelease := func(l *Ledger, op int) bool {
				switch op {
				case 0:
					return l.ReserveEdge(e, amt) == nil
				case 1:
					l.ReleaseEdge(e, amt)
					return true
				case 2:
					return l.ReserveInstance(node, f, amt) == nil && f != Dummy
				default:
					l.ReleaseInstance(node, f, amt)
					return f != Dummy
				}
			}
			op := rng.Intn(8)
			switch op {
			case 0, 1, 2, 3:
				liveMoved = reserveOrRelease(live, op)
			case 4:
				flt := Fault{Kind: FaultLinkDown, Link: e}
				switch rng.Intn(4) {
				case 1:
					flt = Fault{Kind: FaultNodeDown, Node: node}
				case 2:
					flt = Fault{Kind: FaultLinkDegrade, Link: e, Fraction: float64(1+rng.Intn(4)) / 4}
				case 3:
					flt = Fault{Kind: FaultEdgeDown, Link: e}
				}
				if err := live.ApplyFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: ApplyFault(%v): %v", seed, step, flt, err)
				}
				if err := mirror.ApplyFault(flt); err != nil {
					t.Fatal(err)
				}
				active, faulted = append(active, flt), true
			case 5:
				if len(active) == 0 {
					if live.RestoreFault(Fault{Kind: FaultEdgeDown, Link: e}) == nil {
						t.Fatalf("seed=%d step=%d: unmatched restore succeeded", seed, step)
					}
					break
				}
				i := rng.Intn(len(active))
				flt := active[i]
				active = slices.Delete(active, i, i+1)
				if err := live.RestoreFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: RestoreFault(%v): %v", seed, step, flt, err)
				}
				if err := mirror.RestoreFault(flt); err != nil {
					t.Fatal(err)
				}
				faulted = true
			case 6:
				op := rng.Intn(4)
				heldMoved = reserveOrRelease(held, op)
				reserveOrRelease(mirror, op)
			case 7:
				held = live.Snapshot()
				mirror = withFaults(held.ExportState())
				heldEpoch, heldUse = live.ViewEpoch(), liveUse
			}

			// (b) Each side's usage moves only by its own mutations.
			if op < 6 && !slices.Equal(heldUse, usageBits(held)) {
				t.Fatalf("seed=%d step=%d: the live ledger's step moved the held copy", seed, step)
			}
			if op == 6 && !slices.Equal(liveUse, usageBits(live)) {
				t.Fatalf("seed=%d step=%d: the held copy's reservation moved the live ledger", seed, step)
			}
			// (c) The held copy sees the family's faults, and nothing else of
			// the live ledger.
			viewsBitEqual(t, held, mirror, "held copy vs its mirror")
			if len(active) == 0 {
				viewsBitEqual(t, held, withFaults(held.ExportState()), "held copy with every fault restored")
			}
			// (d)
			if want := liveEpoch + count(liveMoved) + count(faulted); live.ViewEpoch() != want {
				t.Fatalf("seed=%d step=%d: live epoch %d, want %d", seed, step, live.ViewEpoch(), want)
			}
			if want := heldEpoch + count(heldMoved) + count(faulted); held.ViewEpoch() != want {
				t.Fatalf("seed=%d step=%d: held epoch %d, want %d", seed, step, held.ViewEpoch(), want)
			}
			// (a)
			liveEpoch, liveUse = live.ViewEpoch(), usageBits(live)
			fresh := live.Snapshot()
			recycled = live.SnapshotInto(recycled)
			for name, c := range map[string]*Ledger{"Snapshot": fresh, "SnapshotInto": recycled} {
				viewsBitEqual(t, c, live, name)
				if c.ViewEpoch() != liveEpoch {
					t.Fatalf("seed=%d step=%d: %s epoch %d, the source's %d", seed, step, name, c.ViewEpoch(), liveEpoch)
				}
			}
			// (e)
			viewsBitEqual(t, withFaults(live.ExportState()), live, "ExportState round trip")
			// Leave the recycled copy dirty, as a worker does (a protected
			// admission reserves on it); none of it may reach the live ledger.
			_ = recycled.ReserveEdge(e, amt)
			_ = recycled.ReserveInstance(node, f, amt)
			recycled.ReleaseEdge(graph.EdgeID(rng.Intn(net.G.NumEdges())), amt)
			recycled.ReleaseInstance(graph.NodeID(rng.Intn(net.G.NumNodes())), f, amt)
			if live.ViewEpoch() != liveEpoch || !slices.Equal(liveUse, usageBits(live)) {
				t.Fatalf("seed=%d step=%d: snapshotting or scribbling on a copy moved the live ledger", seed, step)
			}
		}
	}
}

// TestSnapshotMatchesRebuiltProperty drives a Snapshot copy of a base ledger
// and an independent clone of the same base (a family of its own, rebuilt
// from ExportState) through a long random interleaving of reservations,
// releases and faults, and checks their views never diverge — a copy is
// observably a full ledger, whatever benchmark/ still calls it. After every
// step it also takes the copy's snapshot twice, fresh (Snapshot) and into
// one recycled ledger that the previous step left scribbled on
// (SnapshotInto): the two must be the same view under the same epoch, and
// stay so.
func TestSnapshotMatchesRebuiltProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := testNet(t)
		base := NewLedger(net)
		// Pre-commit some base usage so copies start from a non-trivial view.
		if err := base.ReserveEdge(0, 3); err != nil {
			t.Fatal(err)
		}
		if err := base.ReserveInstance(1, 2, 2); err != nil {
			t.Fatal(err)
		}

		cp := base.Snapshot()
		clone, err := NewLedgerFromState(net, base.ExportState())
		if err != nil {
			t.Fatal(err)
		}
		// Fault events are mirrored onto both families; quarantine must keep
		// the views in lockstep exactly like reservations do.
		var live []Fault
		var recycled, fresh *Ledger // the copy's snapshots of the previous step
		var pinned uint64           // the epoch both were taken under
		for step := 0; step < 400; step++ {
			if step == 200 {
				// The live copy moves onto a new copy of itself, in the same
				// family, and the recycled snapshot follows it.
				base = cp.Snapshot()
				cp = base.Snapshot()
			}
			faultStep := false
			e := graph.EdgeID(rng.Intn(net.G.NumEdges()))
			node := graph.NodeID(rng.Intn(net.G.NumNodes()))
			f := VNFID(rng.Intn(int(net.Catalog.Merger()) + 1))
			amt := float64(rng.Intn(40)) / 4
			switch rng.Intn(6) {
			case 0:
				oe, ce := cp.ReserveEdge(e, amt), clone.ReserveEdge(e, amt)
				if (oe == nil) != (ce == nil) {
					t.Fatalf("seed=%d step=%d: ReserveEdge(%d,%v) copy err=%v clone err=%v", seed, step, e, amt, oe, ce)
				}
			case 1:
				cp.ReleaseEdge(e, amt)
				clone.ReleaseEdge(e, amt)
			case 2:
				oe, ce := cp.ReserveInstance(node, f, amt), clone.ReserveInstance(node, f, amt)
				if (oe == nil) != (ce == nil) {
					t.Fatalf("seed=%d step=%d: ReserveInstance(%d,%d,%v) copy err=%v clone err=%v", seed, step, node, f, amt, oe, ce)
				}
			case 3:
				cp.ReleaseInstance(node, f, amt)
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
				oe, ce := cp.ApplyFault(flt), clone.ApplyFault(flt)
				if (oe == nil) != (ce == nil) {
					t.Fatalf("seed=%d step=%d: ApplyFault(%v) copy err=%v clone err=%v", seed, step, flt, oe, ce)
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
				if err := cp.RestoreFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: copy RestoreFault(%v): %v", seed, step, flt, err)
				}
				if err := clone.RestoreFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: clone RestoreFault(%v): %v", seed, step, flt, err)
				}
			}
			viewsBitEqual(t, cp, clone, "during interleaving")

			if recycled != nil {
				// The step mutated the source, not the snapshots: a reservation
				// leaves both epochs where they were, a fault moves both (it
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
			pinned = cp.ViewEpoch()
			fresh, recycled = cp.Snapshot(), cp.SnapshotInto(recycled)
			if recycled.fam != cp.fam || fresh.fam != cp.fam {
				t.Fatalf("seed=%d step=%d: snapshot left the copy's family", seed, step)
			}
			viewsBitEqual(t, recycled, fresh, "SnapshotInto vs Snapshot")
			viewsBitEqual(t, recycled, cp, "SnapshotInto vs its source")
			if re, fe := recycled.ViewEpoch(), fresh.ViewEpoch(); re != pinned || fe != pinned {
				t.Fatalf("seed=%d step=%d: pins differ: recycled %d, fresh %d, source %d", seed, step, re, fe, pinned)
			}
			if cp.ViewEpoch() != pinned {
				t.Fatalf("seed=%d step=%d: taking snapshots moved the source's epoch", seed, step)
			}
		}
		// Mutating the recycled copy moves its own epoch and nothing of the
		// source's.
		recycled.ReleaseEdge(0, 0.25)
		if recycled.ViewEpoch() == pinned || cp.ViewEpoch() != pinned {
			t.Fatalf("seed=%d: mutating the recycled snapshot: its epoch %d, source's %d, was %d", seed, recycled.ViewEpoch(), cp.ViewEpoch(), pinned)
		}
		viewsBitEqual(t, cp, clone, "after mutating the recycled snapshot")
		// Drain the outstanding faults and check restores are exact.
		for _, flt := range live {
			if err := cp.RestoreFault(flt); err != nil {
				t.Fatalf("seed=%d: drain copy RestoreFault(%v): %v", seed, flt, err)
			}
			if err := clone.RestoreFault(flt); err != nil {
				t.Fatalf("seed=%d: drain clone RestoreFault(%v): %v", seed, flt, err)
			}
		}
		if cp.fam.table.Load() != nil || clone.fam.table.Load() != nil {
			t.Fatalf("seed=%d: quarantine not drained after restoring every live fault", seed)
		}
		viewsBitEqual(t, cp, clone, "after fault drain")

		// Snapshot must be an independent copy of the current view.
		snap := cp.Snapshot()
		viewsBitEqual(t, snap, clone, "snapshot")
		snap.ReleaseEdge(0, 100)
		viewsBitEqual(t, cp, clone, "after mutating snapshot")
	}
}

func count(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
