package faults

import (
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

func testNet(t *testing.T) *network.Network {
	t.Helper()
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10) // e0
	g.MustAddEdge(1, 2, 2, 10) // e1
	g.MustAddEdge(2, 3, 3, 10) // e2
	net := network.New(g, network.Catalog{N: 2})
	net.MustAddInstance(1, 1, 10, 5)
	net.MustAddInstance(2, 2, 20, 5)
	return net
}

func TestEventsOrdering(t *testing.T) {
	s := Schedule{
		{At: 5, Duration: 5, Fault: network.Fault{Kind: network.FaultLinkDown, Link: 0}},
		{At: 2, Duration: 3, Fault: network.Fault{Kind: network.FaultLinkDown, Link: 1}},
		{At: 5, Duration: 1, Fault: network.Fault{Kind: network.FaultNodeDown, Node: 2}},
	}
	evs := s.Events()
	if len(evs) != 6 {
		t.Fatalf("len(Events) = %d, want 6", len(evs))
	}
	// t=2 apply#1, t=5 restore#1 BEFORE the two applies, then apply#0,
	// apply#2 (incident order), t=6 restore#2, t=10 restore#0.
	want := []struct {
		at    float64
		apply bool
		inc   int
	}{
		{2, true, 1}, {5, false, 1}, {5, true, 0}, {5, true, 2}, {6, false, 2}, {10, false, 0},
	}
	for i, w := range want {
		ev := evs[i]
		if ev.At != w.at || ev.Apply != w.apply || ev.Incident != w.inc {
			t.Fatalf("event %d = {At:%v Apply:%v Incident:%d}, want %+v", i, ev.At, ev.Apply, ev.Incident, w)
		}
	}
}

func TestGenerateDeterministicAndValid(t *testing.T) {
	cfg := GenConfig{
		Nodes: 20, Edges: 40, Count: 50,
		MeanGap: 1, MeanHold: 2, NodeFrac: 0.3, DegradeFrac: 0.4,
	}
	a, err := Generate(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != cfg.Count {
		t.Fatalf("len = %d, want %d", len(a), cfg.Count)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("incident %d differs across same-seed generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	kinds := map[network.FaultKind]int{}
	at := 0.0
	for i, inc := range a {
		if f := inc.Fault.Fraction; !(inc.At >= at) || !(inc.Duration > 0) ||
			inc.Fault.Kind == network.FaultLinkDegrade && !(f > 0 && f <= 1) {
			t.Fatalf("incident %d malformed: %+v", i, inc)
		}
		at = inc.At
		kinds[inc.Fault.Kind]++
	}
	if len(kinds) != 3 {
		t.Fatalf("expected all three fault kinds in 50 draws, got %v", kinds)
	}
}

// TestGenerateRejects: Generate refuses a config whose schedule would not
// be well-formed, NaN and infinite means included — NaN fails every
// comparison, so each check is written to fail it too.
func TestGenerateRejects(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ok := GenConfig{Nodes: 4, Edges: 3, Count: 5, MeanGap: 1, MeanHold: 2, NodeFrac: 0.3, DegradeFrac: 0.4}
	for _, bad := range []func(*GenConfig){
		func(c *GenConfig) { c.Edges = 0 },
		func(c *GenConfig) { c.Count = -1 },
		func(c *GenConfig) { c.MeanGap = 0 },
		func(c *GenConfig) { c.MeanGap = nan },
		func(c *GenConfig) { c.MeanGap = inf },
		func(c *GenConfig) { c.MeanHold = nan },
		func(c *GenConfig) { c.MeanHold = inf },
		func(c *GenConfig) { c.NodeFrac = nan },
		func(c *GenConfig) { c.DegradeFrac = 1.5 },
	} {
		cfg := ok
		bad(&cfg)
		if s, err := Generate(cfg, rand.New(rand.NewSource(1))); err == nil {
			t.Errorf("Generate accepted %+v: %+v", cfg, s)
		}
	}
	if _, err := Generate(ok, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("Generate refused %+v: %v", ok, err)
	}
}

// TestParseKindRoundTrip: every kind's text form reads back as the kind,
// and a text no kind has is an error.
func TestParseKindRoundTrip(t *testing.T) {
	for _, kind := range []network.FaultKind{network.FaultLinkDown, network.FaultNodeDown, network.FaultLinkDegrade, network.FaultEdgeDown} {
		if back, err := ParseKind(kind.String()); err != nil || back != kind {
			t.Errorf("ParseKind(%q) = %v, %v", kind.String(), back, err)
		}
	}
	if _, err := ParseKind("meteor-strike"); err == nil {
		t.Error("ParseKind read an unknown kind")
	}
}

func TestHits(t *testing.T) {
	net := testNet(t)
	// Flow 0 -> f1@1 -> f2@2 -> 3 along the line: edges 0,1,2; VNF nodes 1,2.
	sol := &core.Solution{
		Layers: []core.LayerEmbedding{
			{Nodes: []graph.NodeID{1}, MergerNode: 1,
				InterPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{0}}}},
			{Nodes: []graph.NodeID{2}, MergerNode: 2,
				InterPaths: []graph.Path{{From: 1, Edges: []graph.EdgeID{1}}}},
		},
		TailPath: graph.Path{From: 2, Edges: []graph.EdgeID{2}},
	}
	cases := []struct {
		f    network.Fault
		want bool
	}{
		{network.Fault{Kind: network.FaultLinkDown, Link: 0}, true},
		{network.Fault{Kind: network.FaultLinkDown, Link: 2}, true}, // tail path
		{network.Fault{Kind: network.FaultLinkDegrade, Link: 1, Fraction: 0.5}, true},
		{network.Fault{Kind: network.FaultNodeDown, Node: 2}, true}, // hosts f2
		{network.Fault{Kind: network.FaultNodeDown, Node: 0}, true}, // transit: severs edge 0
		{network.Fault{Kind: network.FaultNodeDown, Node: 3}, true}, // dst endpoint of tail edge
	}
	for _, c := range cases {
		if got := Hits(net, sol, c.f); got != c.want {
			t.Fatalf("Hits(%v) = %v, want %v", c.f, got, c.want)
		}
	}
	// A flow not touching the failed elements: src==dst-style single edge 0.
	short := &core.Solution{
		Layers: []core.LayerEmbedding{
			{Nodes: []graph.NodeID{1}, MergerNode: 1,
				InterPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{0}}}},
		},
		TailPath: graph.Path{From: 1},
	}
	if Hits(net, short, network.Fault{Kind: network.FaultLinkDown, Link: 2}) {
		t.Fatal("Hits matched a link the flow never uses")
	}
	if Hits(net, short, network.Fault{Kind: network.FaultNodeDown, Node: 3}) {
		t.Fatal("Hits matched a node the flow never touches")
	}
}
