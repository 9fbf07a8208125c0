package network

import (
	"math"
	"slices"
	"strings"
	"testing"

	"dagsfc/internal/graph"
)

func TestLedgerEdgeReserveRelease(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if got := l.EdgeResidual(0); got != 10 {
		t.Fatalf("fresh residual = %v, want 10", got)
	}
	if err := l.ReserveEdge(0, 6); err != nil {
		t.Fatal(err)
	}
	if got := l.EdgeResidual(0); got != 4 {
		t.Fatalf("residual after reserve = %v, want 4", got)
	}
	if err := l.ReserveEdge(0, 5); err == nil {
		t.Fatal("over-reservation accepted")
	}
	if got := l.EdgeResidual(0); got != 4 {
		t.Fatal("failed reservation had side effects")
	}
	l.ReleaseEdge(0, 6)
	if got := l.EdgeResidual(0); got != 10 {
		t.Fatalf("residual after release = %v, want 10", got)
	}
	l.ReleaseEdge(0, 99) // over-release clamps at zero usage
	if got := l.EdgeResidual(0); got != 10 {
		t.Fatal("over-release corrupted ledger")
	}
}

func TestLedgerInstanceReserveRelease(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if got := l.InstanceResidual(0, 1); got != 5 {
		t.Fatalf("residual = %v, want 5", got)
	}
	if err := l.ReserveInstance(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	if err := l.ReserveInstance(0, 1, 0.1); err == nil {
		t.Fatal("exhausted instance accepted more")
	}
	l.ReleaseInstance(0, 1, 5)
	if got := l.InstanceResidual(0, 1); got != 5 {
		t.Fatalf("residual after release = %v", got)
	}
}

func TestLedgerMissingInstanceHasZeroResidual(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if got := l.InstanceResidual(3, 1); got != 0 {
		t.Fatalf("missing instance residual = %v, want 0", got)
	}
	if err := l.ReserveInstance(3, 1, 1); err == nil {
		t.Fatal("reservation on missing instance accepted")
	}
}

func TestLedgerDummyIsFree(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	for i := 0; i < 100; i++ {
		if err := l.ReserveInstance(0, Dummy, 1000); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLedgerNegativeReservationRejected(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveEdge(0, -1); err == nil {
		t.Fatal("negative edge reservation accepted")
	}
	if err := l.ReserveInstance(0, 1, -1); err == nil {
		t.Fatal("negative instance reservation accepted")
	}
	// NaN fails `amount < 0` as well as the capacity test; accepted, it
	// would leave a NaN residual that no release can repair.
	if err := l.ReserveEdge(0, math.NaN()); err == nil {
		t.Fatal("NaN edge reservation accepted")
	}
	if err := l.ReserveInstance(0, 1, math.NaN()); err == nil {
		t.Fatal("NaN instance reservation accepted")
	}
	if l.EdgeResidual(0) != 10 || l.InstanceResidual(0, 1) != 5 {
		t.Fatalf("refused reservations moved the residuals: edge %v, instance %v", l.EdgeResidual(0), l.InstanceResidual(0, 1))
	}
}

func TestLedgerSnapshotIndependent(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if err := l.ReserveEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	c := l.Snapshot()
	if err := c.ReserveEdge(0, 4); err != nil {
		t.Fatal(err)
	}
	if l.EdgeResidual(0) != 7 || c.EdgeResidual(0) != 3 {
		t.Fatalf("ledgers entangled: %v vs %v", l.EdgeResidual(0), c.EdgeResidual(0))
	}
	if err := c.ReserveInstance(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	if l.InstanceResidual(0, 1) != 5 {
		t.Fatal("instance usage leaked across clone")
	}
}

func TestLedgerCostOptionsFilters(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	// Saturate edge 0 (0-1). A search demanding 1 unit must avoid it.
	if err := l.ReserveEdge(0, 10); err != nil {
		t.Fatal(err)
	}
	opts := l.CostOptions(1)
	if _, ok := net.G.MinCostPath(0, 1, opts); ok {
		t.Fatal("saturated edge used")
	}
	// Without demand the edge is still admitted.
	if _, ok := net.G.MinCostPath(0, 1, l.CostOptions(0)); !ok {
		t.Fatal("zero-demand search should admit saturated edge")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	net := testNet(t)
	var b strings.Builder
	if err := net.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.G.NumNodes() != net.G.NumNodes() || got.G.NumEdges() != net.G.NumEdges() {
		t.Fatal("topology not preserved")
	}
	if got.NumInstances() != net.NumInstances() || got.Catalog != net.Catalog {
		t.Fatal("deployment not preserved")
	}
	inst, ok := got.Instance(2, 3)
	if !ok || inst.Price != 30 {
		t.Fatalf("instance data lost: %+v ok=%v", inst, ok)
	}
	e, ok := got.G.FindEdge(1, 2)
	if !ok || e.Price != 2 || e.Capacity != 10 {
		t.Fatalf("edge data lost: %+v ok=%v", e, ok)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":-3}`)); err == nil {
		t.Fatal("negative node count accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":2,"vnf_kinds":1,"links":[{"a":0,"b":9,"price":1,"capacity":1}]}`)); err == nil {
		t.Fatal("out-of-range link accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"nodes":2,"vnf_kinds":1,"instances":[{"node":0,"vnf":7,"price":1,"capacity":1}]}`)); err == nil {
		t.Fatal("out-of-catalog instance accepted")
	}
}

// TestEdgeResidualsBitExact pins the bulk-export contract: EdgeResiduals
// must agree with per-edge EdgeResidual bitwise — same usage, same
// quarantine subtraction — across a ledger, copies of it, and active
// faults, because cost-view compilation feeds its output into the exact
// capacity-floor comparison the scalar path uses.
func TestEdgeResidualsBitExact(t *testing.T) {
	net := testNet(t)
	root := NewLedger(net)
	// Awkward float amounts so any reordering of the additions would show.
	if err := root.ReserveEdge(0, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := root.ReserveEdge(1, 3.3); err != nil {
		t.Fatal(err)
	}
	s1 := root.Snapshot()
	if err := s1.ReserveEdge(0, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := s1.ReserveEdge(2, 1.0/3); err != nil {
		t.Fatal(err)
	}
	s2 := s1.Snapshot()
	if err := s2.ReserveEdge(0, 0.7); err != nil {
		t.Fatal(err)
	}
	if err := root.ApplyFault(Fault{Kind: FaultLinkDegrade, Link: 1, Fraction: 0.3}); err != nil {
		t.Fatal(err)
	}
	check := func(name string, l *Ledger) {
		t.Helper()
		// Deliberately dirty, oversized buffer: reuse must overwrite fully.
		buf := []float64{99, 99, 99, 99, 99}
		got := l.EdgeResiduals(buf)
		if len(got) != net.G.NumEdges() {
			t.Fatalf("%s: len = %d, want %d", name, len(got), net.G.NumEdges())
		}
		for e := 0; e < net.G.NumEdges(); e++ {
			want := l.EdgeResidual(graph.EdgeID(e))
			if got[e] != want {
				t.Fatalf("%s: edge %d residual = %v, want %v", name, e, got[e], want)
			}
		}
	}
	check("root", root)
	check("snapshot", s1)
	check("snapshot of a snapshot", s2)
	// Undersized buffer grows.
	if got := root.EdgeResiduals(nil); len(got) != net.G.NumEdges() {
		t.Fatalf("nil buffer: len = %d", len(got))
	}
	// The CostOptions wiring reads residuals from the ledger itself.
	if opts := root.CostOptions(1); opts.Residual != graph.ResidualSource(root) {
		t.Fatal("CostOptions does not read its residuals from the ledger")
	}
}

// checkInstanceResiduals requires InstanceResiduals to agree with the scalar
// InstanceResidual bitwise on every (category, node) pair of the rows —
// deployed or not, dummy and merger included — writing through a dirty,
// oversized buffer that reuse must overwrite fully. Asked for the rows of
// f(1) and the merger only, it must fill those alike and leave every other
// row as the buffer held it.
func checkInstanceResiduals(t *testing.T, name string, l *Ledger) {
	t.Helper()
	net := l.Network()
	nodes, rows := net.G.NumNodes(), net.Catalog.N+2
	buf := make([]float64, rows*nodes+3)
	for _, cats := range [][]VNFID{nil, {net.Catalog.Merger(), 1}} {
		for i := range buf {
			buf[i] = 99
		}
		got := l.InstanceResiduals(buf, cats...)
		if len(got) != rows*nodes {
			t.Fatalf("%s: len = %d, want %d", name, len(got), rows*nodes)
		}
		for f := 0; f < rows; f++ {
			for v := 0; v < nodes; v++ {
				want := l.InstanceResidual(graph.NodeID(v), VNFID(f))
				if cats != nil && !slices.Contains(cats, VNFID(f)) {
					want = 99
				}
				if have := got[f*nodes+v]; math.Float64bits(have) != math.Float64bits(want) {
					t.Fatalf("%s, rows %v: f(%d) on node %d residual = %v, want %v", name, cats, f, v, have, want)
				}
			}
		}
	}
}

// TestInstanceResidualsBitExact is TestEdgeResidualsBitExact for instances:
// the dense rows a search reads must be the scalar answers to the last bit
// — same usage, same quarantine subtraction — on a ledger, copies of it, a
// snapshot taken into recycled storage and a ledger restored from exported
// state.
func TestInstanceResidualsBitExact(t *testing.T) {
	net := testNet(t)
	root := NewLedger(net)
	checkInstanceResiduals(t, "empty root", root)
	// Awkward float amounts so any reordering of the additions would show.
	if err := root.ReserveInstance(0, 1, 0.1); err != nil {
		t.Fatal(err)
	}
	if err := root.ReserveInstance(2, 2, 3.3); err != nil {
		t.Fatal(err)
	}
	s1 := root.Snapshot()
	if err := s1.ReserveInstance(0, 1, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := s1.ReserveInstance(3, net.Catalog.Merger(), 1.0/3); err != nil {
		t.Fatal(err)
	}
	s2 := s1.Snapshot()
	if err := s2.ReserveInstance(0, 1, 0.7); err != nil {
		t.Fatal(err)
	}
	s2.ReleaseInstance(2, 2, 1.1)
	// A node fault elsewhere quarantines instance capacity without pinning
	// the nodes under test; it is restored below (TestInstanceResiduals-
	// BitExactUnderPins keeps pins live).
	fault := Fault{Kind: FaultNodeDown, Node: 1}
	if err := root.ApplyFault(fault); err != nil {
		t.Fatal(err)
	}
	stale := root.Snapshot()
	if err := stale.ReserveInstance(2, 3, 4); err != nil {
		t.Fatal(err)
	}
	restored, err := NewLedgerFromState(net, s2.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	for name, l := range map[string]*Ledger{
		"root": root, "snapshot": s1, "snapshot of a snapshot": s2,
		"fresh snapshot": s2.Snapshot(), "recycled snapshot": s2.SnapshotInto(stale),
		"restored": restored,
	} {
		checkInstanceResiduals(t, name, l)
	}
	if err := root.RestoreFault(fault); err != nil {
		t.Fatal(err)
	}
	checkInstanceResiduals(t, "snapshot of a snapshot after restore", s2)
	// The state restore carries the copy's view into a ledger of its own,
	// to the bit.
	want := s2.InstanceResiduals(nil)
	for i, have := range restored.InstanceResiduals(nil) {
		if math.Float64bits(have) != math.Float64bits(want[i]) {
			t.Fatalf("restored: slot %d residual = %v, the snapshot's %v", i, have, want[i])
		}
	}
}
