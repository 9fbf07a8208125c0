package core

import (
	"math"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

func TestValidateAcceptsFixture(t *testing.T) {
	p := lineFixture()
	if err := Validate(p, lineSolution()); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesWrongLayerCount(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers = s.Layers[:1]
	mustFail(t, p, s, "layers")
}

func TestValidateCatchesWrongHost(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[0].Nodes[0] = 2 // f(1) not hosted at node 2
	mustFail(t, p, s, "does not host")
}

func TestValidateCatchesWrongMergerHost(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[1].MergerNode = 1 // merger only at node 2
	mustFail(t, p, s, "merger")
}

func TestValidateCatchesInterPathEndpointMismatch(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[1].InterPaths[0] = graph.Path{From: 1} // should end at node 2
	mustFail(t, p, s, "inter-path")
}

func TestValidateCatchesInterPathWrongStart(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	// Path 2->... does not start at the previous end node 1.
	s.Layers[1].InterPaths[0] = graph.Path{From: 2}
	mustFail(t, p, s, "starts at")
}

func TestValidateCatchesInnerPathMismatch(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[1].InnerPaths[1] = graph.Path{From: 1} // must reach merger node 2
	mustFail(t, p, s, "inner-path")
}

func TestValidateCatchesDiscontinuousPath(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.TailPath = graph.Path{From: 2, Edges: []graph.EdgeID{0}} // e0 not incident to 2
	mustFail(t, p, s, "tail path")
}

func TestValidateCatchesTailToWrongDestination(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.TailPath = graph.Path{From: 2} // ends at 2, dst is 3
	mustFail(t, p, s, "destination")
}

func TestValidateCatchesSingleLayerMergerMismatch(t *testing.T) {
	p := lineFixture()
	s := lineSolution()
	s.Layers[0].MergerNode = 2 // single-VNF layer: must equal Nodes[0]
	mustFail(t, p, s, "single-VNF")
}

func TestValidateCatchesInstanceOverCapacity(t *testing.T) {
	p := lineFixture()
	// Commit most of f(1)@1's capacity first.
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveInstance(1, 1, 9.5); err != nil {
		t.Fatal(err)
	}
	p.Ledger = ledger
	mustFail(t, p, lineSolution(), "over capacity")
}

func TestValidateCatchesLinkOverCapacity(t *testing.T) {
	p := lineFixture()
	ledger := network.NewLedger(p.Net)
	// e1 is used twice by the fixture solution (α=2): leave only 1 unit.
	if err := ledger.ReserveEdge(1, 9); err != nil {
		t.Fatal(err)
	}
	p.Ledger = ledger
	mustFail(t, p, lineSolution(), "over capacity")
}

func TestValidateRespectsReuseCountsInCapacity(t *testing.T) {
	p := lineFixture()
	ledger := network.NewLedger(p.Net)
	// α_{e1}=2 and rate 1: residual 2 is exactly enough.
	if err := ledger.ReserveEdge(1, 8); err != nil {
		t.Fatal(err)
	}
	p.Ledger = ledger
	if err := Validate(p, lineSolution()); err != nil {
		t.Fatal(err)
	}
}

func TestCommitReservesCapacity(t *testing.T) {
	p := lineFixture()
	cb, err := Commit(p, lineSolution())
	if err != nil {
		t.Fatal(err)
	}
	if cb.Total() != 73 {
		t.Fatalf("commit cost = %v, want 73", cb.Total())
	}
	l := p.Ledger
	if got := l.EdgeUsed(1); got != 2 {
		t.Fatalf("edge 1 used = %v, want 2 (α·rate)", got)
	}
	if got := l.InstanceUsed(1, 1); got != 1 {
		t.Fatalf("instance use = %v, want 1", got)
	}
	// A second commit sees the depleted network but still fits (capacity
	// 10, uses ≤ 2 per resource).
	if _, err := Commit(p, lineSolution()); err != nil {
		t.Fatal(err)
	}
}

func TestCommitRejectsWithoutSideEffects(t *testing.T) {
	p := lineFixture()
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveEdge(1, 9); err != nil { // α=2 won't fit
		t.Fatal(err)
	}
	p.Ledger = ledger
	before := ledger.EdgeUsed(0)
	if _, err := Commit(p, lineSolution()); err == nil {
		t.Fatal("infeasible commit accepted")
	}
	if ledger.EdgeUsed(0) != before || ledger.InstanceUsed(1, 1) != 0 {
		t.Fatal("failed commit left reservations behind")
	}
}

func TestProblemValidate(t *testing.T) {
	p := lineFixture()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Src = -1
	if bad.Validate() == nil {
		t.Fatal("bad source validated")
	}
	bad = *p
	bad.Dst = 99
	if bad.Validate() == nil {
		t.Fatal("bad destination validated")
	}
	bad = *p
	bad.Rate = 0
	if bad.Validate() == nil {
		t.Fatal("zero rate validated")
	}
	bad = *p
	bad.Size = -1
	if bad.Validate() == nil {
		t.Fatal("negative size validated")
	}
	// A NaN passes every `<=` comparison; a NaN or infinite rate or size
	// would reach the ledger and poison its residuals.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad = *p
		bad.Rate = v
		if bad.Validate() == nil {
			t.Fatalf("rate %v validated", v)
		}
		bad = *p
		bad.Size = v
		if bad.Validate() == nil {
			t.Fatalf("size %v validated", v)
		}
	}
	bad = *p
	bad.Rate = math.NaN()
	ledger := network.NewLedger(p.Net)
	bad.Ledger = ledger
	if _, err := Commit(&bad, lineSolution()); err == nil {
		t.Fatal("commit of a NaN-rate flow accepted")
	}
	for e := range p.Net.G.NumEdges() {
		if r := ledger.EdgeResidual(graph.EdgeID(e)); math.IsNaN(r) {
			t.Fatalf("edge %d residual is NaN after a refused commit", e)
		}
	}
	bad = *p
	bad.Net = nil
	if bad.Validate() == nil {
		t.Fatal("nil network validated")
	}
	bad = *p
	other := lineFixture()
	bad.Ledger = network.NewLedger(other.Net)
	if bad.Validate() == nil {
		t.Fatal("foreign ledger validated")
	}
}

func TestLayerSpecs(t *testing.T) {
	p := lineFixture()
	specs := p.LayerSpecs()
	if len(specs) != 2 {
		t.Fatalf("specs = %d, want 2", len(specs))
	}
	if specs[0].Merger || !specs[1].Merger {
		t.Fatal("merger flags wrong")
	}
	req := specs[1].Required(p.Net.Catalog)
	if len(req) != 3 || req[2] != p.Net.Catalog.Merger() {
		t.Fatalf("required = %v", req)
	}
	// Required must not alias the SFC's layer slice.
	req[0] = 99
	if p.SFC.Layers[1].VNFs[0] == 99 {
		t.Fatal("Required aliases the SFC layer")
	}
}

func mustFail(t *testing.T, p *Problem, s *Solution, substr string) {
	t.Helper()
	err := Validate(p, s)
	if err == nil {
		t.Fatalf("expected validation failure containing %q", substr)
	}
	if !strings.Contains(err.Error(), substr) {
		t.Fatalf("error %q does not mention %q", err, substr)
	}
}
