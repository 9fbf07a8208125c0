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
	must(t, l.ReserveEdge(0, 6))
	if got := l.EdgeResidual(0); got != 4 {
		t.Fatalf("residual after reserve = %v, want 4", got)
	}
	if err := l.ReserveEdge(0, 5); err == nil {
		t.Fatal("over-reservation accepted")
	}
	if got := l.EdgeResidual(0); got != 4 {
		t.Fatal("failed reservation had side effects")
	}
	must(t, l.ReleaseEdge(0, 5))
	if got := l.EdgeResidual(0); got != 9 {
		t.Fatalf("residual after release = %v, want 9", got)
	}
	// An over-release, a negative, a NaN or an off-grid release is refused
	// and changes nothing, epoch included.
	rows, epoch := l.EdgeResiduals(nil), l.ViewEpoch()
	for _, amt := range []float64{1.5, -1, math.NaN(), 0.1} {
		if err := l.ReleaseEdge(0, amt); err == nil {
			t.Errorf("release of %v from usage 1 accepted", amt)
		}
		if err := l.ReleaseInstance(0, 1, amt); err == nil {
			t.Errorf("release of %v from an idle instance accepted", amt)
		}
		if got := l.EdgeResiduals(nil); math.Float64bits(got[0]) != math.Float64bits(rows[0]) || l.ViewEpoch() != epoch {
			t.Fatalf("refused release of %v moved the ledger: %v, epoch %d → %d", amt, got, epoch, l.ViewEpoch())
		}
	}
}

func TestLedgerInstanceReserveRelease(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	if got := l.InstanceResidual(0, 1); got != 5 {
		t.Fatalf("residual = %v, want 5", got)
	}
	must(t, l.ReserveInstance(0, 1, 5))
	if err := l.ReserveInstance(0, 1, 0.1); err == nil {
		t.Fatal("exhausted instance accepted more")
	}
	must(t, l.ReleaseInstance(0, 1, 5))
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
		must(t, l.ReserveInstance(0, Dummy, 1000))
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
	must(t, l.ReserveEdge(0, 3))
	c := l.Snapshot()
	must(t, c.ReserveEdge(0, 4))
	if l.EdgeResidual(0) != 7 || c.EdgeResidual(0) != 3 {
		t.Fatalf("ledgers entangled: %v vs %v", l.EdgeResidual(0), c.EdgeResidual(0))
	}
	must(t, c.ReserveInstance(0, 1, 2))
	if l.InstanceResidual(0, 1) != 5 {
		t.Fatal("instance usage leaked across clone")
	}
}

// reaches reports whether a min-cost search on g under opts finds b from a.
func reaches(g *graph.Graph, a, b graph.NodeID, opts *graph.CostOptions) bool {
	return g.CompileView(opts).DijkstraWith(graph.NewScratch(), a).Reachable(b)
}

func TestLedgerCostOptionsFilters(t *testing.T) {
	net := testNet(t)
	l := NewLedger(net)
	// Saturate edge 0 (0-1). A search demanding 1 unit must avoid it.
	must(t, l.ReserveEdge(0, 10))
	opts := l.CostOptions(1)
	if reaches(net.G, 0, 1, opts) {
		t.Fatal("saturated edge used")
	}
	// Without demand the edge is still admitted.
	if !reaches(net.G, 0, 1, l.CostOptions(0)) {
		t.Fatal("zero-demand search should admit saturated edge")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	net := testNet(t)
	var b strings.Builder
	must(t, net.WriteJSON(&b))
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
	// Awkward grid amounts, so a reordered sum would show if it could.
	g := graph.ToGrid
	must(t, root.ReserveEdge(0, g(0.1)))
	must(t, root.ReserveEdge(1, g(3.3)))
	s1 := root.Snapshot()
	must(t, s1.ReserveEdge(0, g(0.2)))
	must(t, s1.ReserveEdge(2, g(1.0/3)))
	s2 := s1.Snapshot()
	must(t, s2.ReserveEdge(0, g(0.7)))
	must(t, root.ApplyFault(Fault{Kind: FaultLinkDegrade, Link: 1, Fraction: 0.3}))
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
// snapshot taken into recycled storage and a fresh ledger holding the same
// net reservations.
func TestInstanceResidualsBitExact(t *testing.T) {
	net := testNet(t)
	root := NewLedger(net)
	checkInstanceResiduals(t, "empty root", root)
	// Awkward grid amounts, so a reordered sum would show if it could.
	g, merger := graph.ToGrid, net.Catalog.Merger()
	must(t, root.ReserveInstance(0, 1, g(0.1)))
	must(t, root.ReserveInstance(2, 2, g(3.3)))
	s1 := root.Snapshot()
	must(t, s1.ReserveInstance(0, 1, g(0.2)))
	must(t, s1.ReserveInstance(3, merger, g(1.0/3)))
	s2 := s1.Snapshot()
	must(t, s2.ReserveInstance(0, 1, g(0.7)))
	must(t, s2.ReleaseInstance(2, 2, g(1.1)))
	// A node fault elsewhere quarantines instance capacity without pinning
	// the nodes under test; it is restored below (TestInstanceResiduals-
	// BitExactUnderPins keeps pins live).
	fault := Fault{Kind: FaultNodeDown, Node: 1}
	must(t, root.ApplyFault(fault))
	stale := root.Snapshot()
	must(t, stale.ReserveInstance(2, 3, 4))
	rebuilt := NewLedger(net)
	must(t, rebuilt.ReserveInstance(0, 1, g(0.7)+g(0.2)+g(0.1)))
	must(t, rebuilt.ReserveInstance(2, 2, g(3.3)-g(1.1)))
	must(t, rebuilt.ReserveInstance(3, merger, g(1.0/3)))
	for name, l := range map[string]*Ledger{
		"root": root, "snapshot": s1, "snapshot of a snapshot": s2,
		"fresh snapshot": s2.Snapshot(), "recycled snapshot": s2.SnapshotInto(stale),
		"rebuilt": rebuilt,
	} {
		checkInstanceResiduals(t, name, l)
	}
	must(t, root.RestoreFault(fault))
	checkInstanceResiduals(t, "snapshot of a snapshot after restore", s2)
	// On the grid the copy's rows are a function of its net reservations,
	// whatever order they were taken in.
	want := s2.InstanceResiduals(nil)
	for i, have := range rebuilt.InstanceResiduals(nil) {
		if math.Float64bits(have) != math.Float64bits(want[i]) {
			t.Fatalf("rebuilt: slot %d residual = %v, the snapshot's %v", i, have, want[i])
		}
	}
}
