package faults

import (
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

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
	if !Hits(net, sol, network.Fault{Kind: network.FaultEdgeDown, Link: 0}) {
		t.Fatal("edge-down on a used edge did not hit")
	}
	if !Hits(net, sol, network.Fault{Kind: network.FaultEdgeDown, Link: 1}) {
		t.Fatal("edge-down on the tail edge did not hit")
	}
	if Hits(net, sol, network.Fault{Kind: network.FaultEdgeDown, Link: 2}) {
		t.Fatal("edge-down on an unused edge hit")
	}
}
