package faults

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

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
		{At: 5, Duration: 5, Fault: Fault{Kind: network.FaultLinkDown, Link: 0}},
		{At: 2, Duration: 3, Fault: Fault{Kind: network.FaultLinkDown, Link: 1}},
		{At: 5, Duration: 1, Fault: Fault{Kind: network.FaultNodeDown, Node: 2}},
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
	if err := a.Validate(nil); err != nil {
		t.Fatalf("generated schedule invalid: %v", err)
	}
	kinds := map[network.FaultKind]int{}
	for _, inc := range a {
		kinds[inc.Fault.Kind]++
	}
	if len(kinds) != 3 {
		t.Fatalf("expected all three fault kinds in 50 draws, got %v", kinds)
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	s, err := Generate(GenConfig{
		Nodes: 5, Edges: 8, Count: 12,
		MeanGap: 1, MeanHold: 1, NodeFrac: 0.25, DegradeFrac: 0.5,
	}, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	text := s.Format()
	got, err := Parse(strings.NewReader("# a comment\n\n" + text))
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, text)
	}
	if len(got) != len(s) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i].Fault != s[i].Fault {
			t.Fatalf("incident %d fault %+v, want %+v", i, got[i].Fault, s[i].Fault)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2 link-down",            // missing target
		"x 2 link-down 0",          // bad time
		"1 2 link-degrade 0",       // missing fraction
		"1 2 meteor-strike 0",      // unknown kind
		"1 -2 link-down 0",         // negative duration
		"1 2 link-degrade 0 nope",  // bad fraction
		"1 2 link-down notanumber", // bad target
		// NaN fails every `<` test, so each of these was accepted.
		"NaN NaN link-degrade 0 NaN",
		"NaN 2 link-down 0",       // NaN start
		"Inf 2 link-down 0",       // a start that never comes
		"1 NaN link-down 0",       // NaN duration
		"1 2 link-degrade 0 NaN",  // NaN fraction
		"1 2 link-degrade 0 -Inf", // fraction out of range
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Fatalf("Parse(%q) succeeded", bad)
		}
	}
}

// TestReplayAgainstLedger replays a schedule immediately (unit 0) against
// a raw ledger: every apply/restore must land in event order and the
// ledger must drain back to a fault-free state.
func TestReplayAgainstLedger(t *testing.T) {
	net := testNet(t)
	ledger := network.NewLedger(net)
	s := Schedule{
		{At: 0, Duration: 2, Fault: Fault{Kind: network.FaultLinkDown, Link: 1}},
		{At: 1, Duration: 2, Fault: Fault{Kind: network.FaultNodeDown, Node: 2}},
		{At: 1.5, Duration: 0.1, Fault: Fault{Kind: network.FaultLinkDegrade, Link: 0, Fraction: 0.5}},
	}
	var seen []Event
	err := Replay(context.Background(), ledger, s, 0, func(ev Event, err error) {
		if err != nil {
			t.Fatalf("event %+v: %v", ev, err)
		}
		seen = append(seen, ev)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("observed %d events, want 6", len(seen))
	}
	fresh := network.NewLedger(net)
	if !slices.Equal(ledger.EdgeResiduals(nil), fresh.EdgeResiduals(nil)) ||
		!slices.Equal(ledger.InstanceResiduals(nil), fresh.InstanceResiduals(nil)) {
		t.Fatal("quarantine left behind after full replay")
	}
	for e := 0; e < net.G.NumEdges(); e++ {
		if got := ledger.EdgeResidual(graph.EdgeID(e)); got != 10 {
			t.Fatalf("edge %d residual = %v, want exactly 10", e, got)
		}
	}
}

func TestReplayCancellation(t *testing.T) {
	net := testNet(t)
	ledger := network.NewLedger(net)
	s := Schedule{
		{At: 0, Duration: 1000, Fault: Fault{Kind: network.FaultLinkDown, Link: 0}},
		{At: 500, Duration: 1000, Fault: Fault{Kind: network.FaultLinkDown, Link: 1}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	fired := 0
	done := make(chan error, 1)
	go func() {
		// 1s units: the first event fires immediately, the second would be
		// minutes away — cancellation must interrupt the wait promptly.
		done <- Replay(ctx, ledger, s, time.Second, func(Event, error) { fired++ })
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("Replay returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Replay did not return after cancellation")
	}
	if fired != 1 {
		t.Fatalf("fired %d events before cancellation, want 1", fired)
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
		f    Fault
		want bool
	}{
		{Fault{Kind: network.FaultLinkDown, Link: 0}, true},
		{Fault{Kind: network.FaultLinkDown, Link: 2}, true}, // tail path
		{Fault{Kind: network.FaultLinkDegrade, Link: 1, Fraction: 0.5}, true},
		{Fault{Kind: network.FaultNodeDown, Node: 2}, true}, // hosts f2
		{Fault{Kind: network.FaultNodeDown, Node: 0}, true}, // transit: severs edge 0
		{Fault{Kind: network.FaultNodeDown, Node: 3}, true}, // dst endpoint of tail edge
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
	if Hits(net, short, Fault{Kind: network.FaultLinkDown, Link: 2}) {
		t.Fatal("Hits matched a link the flow never uses")
	}
	if Hits(net, short, Fault{Kind: network.FaultNodeDown, Node: 3}) {
		t.Fatal("Hits matched a node the flow never touches")
	}
}
