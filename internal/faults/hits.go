package faults

import (
	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// Hits reports whether a committed embedding traverses the element a
// fault takes out — the predicate the server's repair scan uses to decide
// which flows a fault strands.
//
//   - Link faults (down and degrade) hit every flow whose real-paths use
//     the link.
//   - Node faults hit flows hosting a VNF or merger on the node AND flows
//     whose paths merely transit it: a transit node's failure severs its
//     incident links, so those are matched through the path edges.
func Hits(net *network.Network, sol *core.Solution, f network.Fault) bool {
	hit := false
	switch f.Kind {
	case network.FaultLinkDown, network.FaultLinkDegrade, network.FaultEdgeDown:
		sol.VisitEdges(func(e graph.EdgeID) {
			if e == f.Link {
				hit = true
			}
		})
	case network.FaultNodeDown:
		sol.VisitNodes(func(v graph.NodeID) {
			if v == f.Node {
				hit = true
			}
		})
		if !hit {
			sol.VisitEdges(func(e graph.EdgeID) {
				ed := net.G.Edge(e)
				if ed.A == f.Node || ed.B == f.Node {
					hit = true
				}
			})
		}
	}
	return hit
}
