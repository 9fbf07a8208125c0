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
// makes reservations and takes faults of its own, and after every step
// checks the dense contract: (a) a fresh Snapshot and a SnapshotInto over
// a ledger the previous step scribbled on answer every query, and the
// epoch, exactly as the live ledger does; (b) nothing done to a copy moves
// the live ledger, and nothing done to the live ledger moves a copy; (c)
// the held copy carries exactly its own faults — those active when it was
// taken and those applied to it since — so it stays bit-equal to a mirror
// rebuilt from exported state and handed the same faults and
// reservations, and once none is active it reads exactly as if there had
// never been one; (d) ViewEpoch moves on every accepted mutation and
// every fault, and on nothing else; (e) ExportState → NewLedgerFromState
// rebuilds the live ledger to the bit.
func TestDenseLedgerProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := testNet(t)
		live := NewLedger(net)
		var active, heldActive []Fault
		// withFaults is a ledger rebuilt from st, holding faults.
		withFaults := func(st LedgerState, faults []Fault) *Ledger {
			l, err := NewLedgerFromState(net, st)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				if err := l.ApplyFault(f); err != nil {
					t.Fatal(err)
				}
			}
			return l
		}
		held := live.Snapshot()
		mirror := withFaults(held.ExportState(), nil)
		recycled := new(Ledger)

		for step := 0; step < 400; step++ {
			e := graph.EdgeID(rng.Intn(net.G.NumEdges()))
			node := graph.NodeID(rng.Intn(net.G.NumNodes()))
			f := VNFID(rng.Intn(int(net.Catalog.Merger()) + 1))
			amt := float64(rng.Intn(40)) / 4
			liveEpoch, heldEpoch := live.ViewEpoch(), held.ViewEpoch()
			liveRows, heldRows := rowBits(live), rowBits(held)
			liveMoved, heldMoved := false, false
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
			// fault applies a random fault to l, or restores one of *faults,
			// and mirrors it onto m when m is not nil.
			fault := func(l, m *Ledger, faults *[]Fault) {
				if rng.Intn(2) == 0 {
					flt := Fault{Kind: FaultLinkDown, Link: e}
					switch rng.Intn(4) {
					case 1:
						flt = Fault{Kind: FaultNodeDown, Node: node}
					case 2:
						flt = Fault{Kind: FaultLinkDegrade, Link: e, Fraction: float64(1+rng.Intn(4)) / 4}
					case 3:
						flt = Fault{Kind: FaultEdgeDown, Link: e}
					}
					if err := l.ApplyFault(flt); err != nil {
						t.Fatalf("seed=%d step=%d: ApplyFault(%v): %v", seed, step, flt, err)
					}
					if m != nil {
						if err := m.ApplyFault(flt); err != nil {
							t.Fatal(err)
						}
					}
					*faults = append(*faults, flt)
					return
				}
				if len(*faults) == 0 {
					if l.RestoreFault(Fault{Kind: FaultEdgeDown, Link: e}) == nil {
						t.Fatalf("seed=%d step=%d: unmatched restore succeeded", seed, step)
					}
					return
				}
				i := rng.Intn(len(*faults))
				flt := (*faults)[i]
				*faults = slices.Delete(*faults, i, i+1)
				if err := l.RestoreFault(flt); err != nil {
					t.Fatalf("seed=%d step=%d: RestoreFault(%v): %v", seed, step, flt, err)
				}
				if m != nil {
					if err := m.RestoreFault(flt); err != nil {
						t.Fatal(err)
					}
				}
			}
			op := rng.Intn(9)
			switch op {
			case 0, 1, 2, 3:
				liveMoved = reserveOrRelease(live, op)
			case 4, 5:
				n := len(active)
				fault(live, nil, &active)
				liveMoved = n != len(active)
			case 6:
				op := rng.Intn(4)
				heldMoved = reserveOrRelease(held, op)
				reserveOrRelease(mirror, op)
			case 7:
				n := len(heldActive)
				fault(held, mirror, &heldActive)
				heldMoved = n != len(heldActive)
			case 8:
				held = live.Snapshot()
				heldActive = slices.Clone(active)
				mirror = withFaults(held.ExportState(), heldActive)
				heldEpoch, heldRows = live.ViewEpoch(), liveRows
			}

			// (b) Each side's view moves only by its own mutations.
			if op != 6 && op != 7 && !slices.Equal(heldRows, rowBits(held)) {
				t.Fatalf("seed=%d step=%d: the live ledger's step moved the held copy", seed, step)
			}
			if (op == 6 || op == 7) && !slices.Equal(liveRows, rowBits(live)) {
				t.Fatalf("seed=%d step=%d: the held copy's step moved the live ledger", seed, step)
			}
			// (c) The held copy carries its own faults, and nothing else.
			viewsBitEqual(t, held, mirror, "held copy vs its mirror")
			if len(heldActive) == 0 {
				viewsBitEqual(t, held, withFaults(held.ExportState(), nil), "held copy with every fault restored")
			}
			// (d)
			if want := liveEpoch + count(liveMoved); live.ViewEpoch() != want {
				t.Fatalf("seed=%d step=%d: live epoch %d, want %d", seed, step, live.ViewEpoch(), want)
			}
			if want := heldEpoch + count(heldMoved); held.ViewEpoch() != want {
				t.Fatalf("seed=%d step=%d: held epoch %d, want %d", seed, step, held.ViewEpoch(), want)
			}
			// (a)
			liveEpoch, liveUse := live.ViewEpoch(), usageBits(live)
			fresh := live.Snapshot()
			recycled = live.SnapshotInto(recycled)
			for name, c := range map[string]*Ledger{"Snapshot": fresh, "SnapshotInto": recycled} {
				viewsBitEqual(t, c, live, name)
				if c.ViewEpoch() != liveEpoch {
					t.Fatalf("seed=%d step=%d: %s epoch %d, the source's %d", seed, step, name, c.ViewEpoch(), liveEpoch)
				}
			}
			// (e)
			viewsBitEqual(t, withFaults(live.ExportState(), active), live, "ExportState round trip")
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
// and an independent clone of the same base (rebuilt from ExportState)
// through a long random interleaving of reservations, releases and faults,
// and checks their views never diverge — a copy is observably a full
// ledger, whatever benchmark/ still calls it. After every step it also
// takes the copy's snapshot twice, fresh (Snapshot) and into one recycled
// ledger that the previous step left scribbled on (SnapshotInto): the two
// must be the same view under the same epoch, sharing the copy's
// quarantine table rather than copying it, and stay so whatever the copy
// does next.
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
		// Fault events are mirrored onto both ledgers; quarantine must keep
		// the views in lockstep exactly like reservations do.
		var live []Fault
		var recycled, fresh *Ledger // the copy's snapshots of the previous step
		var pinned uint64           // the epoch both were taken under
		var pinnedRows []uint64     // and the view
		for step := 0; step < 400; step++ {
			if step == 200 {
				// The live copy moves onto a new copy of itself, and the
				// recycled snapshot follows it.
				base = cp.Snapshot()
				cp = base.Snapshot()
			}
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
				// and a fault alike leave both epochs where they were.
				if re, fe := recycled.ViewEpoch(), fresh.ViewEpoch(); re != pinned || fe != pinned {
					t.Fatalf("seed=%d step=%d: mutating the source moved a snapshot's pin (recycled %d, fresh %d, was %d)", seed, step, re, fe, pinned)
				}
				if !slices.Equal(rowBits(fresh), pinnedRows) {
					t.Fatalf("seed=%d step=%d: a snapshot's view moved with its source", seed, step)
				}
				viewsBitEqual(t, recycled, fresh, "snapshots after the source moved on")
				// Leave the recycled ledger dirty: its user reserves on it (a
				// protected admission does), and none of it may show below.
				_ = recycled.ReserveEdge(e, amt)
				_ = recycled.ReserveInstance(node, f, amt)
				recycled.ReleaseEdge(graph.EdgeID(rng.Intn(net.G.NumEdges())), amt)
			}
			pinned, pinnedRows = cp.ViewEpoch(), rowBits(cp)
			fresh, recycled = cp.Snapshot(), cp.SnapshotInto(recycled)
			if recycled.quar != cp.quar || fresh.quar != cp.quar {
				t.Fatalf("seed=%d step=%d: a snapshot copied the quarantine table instead of sharing it", seed, step)
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
		if cp.quar != nil || clone.quar != nil {
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
