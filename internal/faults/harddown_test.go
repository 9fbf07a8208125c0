package faults

import (
	"strings"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// TestHardKindsFormatParseRoundTrip pins the text round-trip of the hard
// failure kinds the protection layer injects: edge-down and node-down must
// survive Format -> Parse exactly, alongside the quarantine kinds.
func TestHardKindsFormatParseRoundTrip(t *testing.T) {
	s := Schedule{
		{At: 0.5, Duration: 2, Fault: Fault{Kind: network.FaultEdgeDown, Link: 3}},
		{At: 1, Duration: 1.25, Fault: Fault{Kind: network.FaultNodeDown, Node: 7}},
		{At: 2, Duration: 0.5, Fault: Fault{Kind: network.FaultEdgeDown, Link: 0}},
		{At: 3, Duration: 1, Fault: Fault{Kind: network.FaultLinkDown, Link: 1}},
	}
	text := s.Format()
	if !strings.Contains(text, "edge-down 3") || !strings.Contains(text, "node-down 7") {
		t.Fatalf("Format missing hard kinds:\n%s", text)
	}
	got, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Parse: %v\ninput:\n%s", err, text)
	}
	if len(got) != len(s) {
		t.Fatalf("round-trip length %d, want %d", len(got), len(s))
	}
	for i := range s {
		if got[i] != s[i] {
			t.Fatalf("incident %d = %+v, want %+v", i, got[i], s[i])
		}
	}
	for _, kind := range []network.FaultKind{network.FaultEdgeDown, network.FaultNodeDown} {
		back, err := ParseKind(kind.String())
		if err != nil || back != kind {
			t.Fatalf("ParseKind(%q) = %v, %v", kind.String(), back, err)
		}
	}
}

// TestHitsEdgeDown checks the strand predicate treats edge-down like the
// other link kinds: it hits exactly the flows whose real paths use the edge.
func TestHitsEdgeDown(t *testing.T) {
	net := testNet(t)
	sol := &core.Solution{
		Layers: []core.LayerEmbedding{
			{Nodes: []graph.NodeID{1}, MergerNode: 1,
				InterPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{0}}}},
		},
		TailPath: graph.Path{From: 1, Edges: []graph.EdgeID{1}},
	}
	if !Hits(net, sol, Fault{Kind: network.FaultEdgeDown, Link: 0}) {
		t.Fatal("edge-down on a used edge did not hit")
	}
	if !Hits(net, sol, Fault{Kind: network.FaultEdgeDown, Link: 1}) {
		t.Fatal("edge-down on the tail edge did not hit")
	}
	if Hits(net, sol, Fault{Kind: network.FaultEdgeDown, Link: 2}) {
		t.Fatal("edge-down on an unused edge hit")
	}
}
