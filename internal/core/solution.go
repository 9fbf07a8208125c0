package core

import (
	"fmt"
	"strings"

	"dagsfc/internal/graph"
)

// LayerEmbedding is the embedding of one DAG-SFC layer: VNF-to-node
// assignments plus the instantiated real-paths of both meta-path groups.
type LayerEmbedding struct {
	// Nodes[i] hosts the layer's i-th regular VNF (the γ-th VNF f_l^γ).
	Nodes []graph.NodeID
	// MergerNode hosts the merger f(n+1) for parallel layers. For
	// single-VNF layers it must equal Nodes[0]; no merger is rented there.
	MergerNode graph.NodeID
	// InterPaths[i] implements the inter-layer meta-path (set P1) from the
	// previous layer's end node to Nodes[i]. Inter-layer paths of one
	// layer are delivered by multicast: shared links are paid once.
	InterPaths []graph.Path
	// InnerPaths[i] implements the inner-layer meta-path (set P2) from
	// Nodes[i] to MergerNode. Nil for single-VNF layers. Inner-layer paths
	// carry different traffic versions, so every link use is paid.
	InnerPaths []graph.Path
}

// EndNode is v_l, where the layer's output leaves: the merger node for
// parallel layers, the single VNF's node otherwise.
func (le LayerEmbedding) EndNode() graph.NodeID {
	if len(le.Nodes) == 1 {
		return le.Nodes[0]
	}
	return le.MergerNode
}

// Solution is a complete embedding of a DAG-SFC: one LayerEmbedding per
// layer plus the tail path connecting the ω-th end node to the destination.
// The paths from the source into layer 1 are layer 1's InterPaths; the tail
// path is the inter-layer meta-path of the stretched layer L_{ω+1}.
type Solution struct {
	Layers   []LayerEmbedding
	TailPath graph.Path
}

// EndNode returns the end node of layer l (1-based); layer 0 is the path
// source. src is needed for the empty-SFC case.
func (s *Solution) endNodeBefore(layer int, src graph.NodeID) graph.NodeID {
	if layer <= 0 {
		return src
	}
	return s.Layers[layer-1].EndNode()
}

// VisitEdges calls fn for every substrate link the embedding traverses:
// all inter-layer and inner-layer real-paths plus the tail path. Links
// used by several paths are visited once per use; callers that need a set
// (e.g. fault matching) dedupe themselves.
func (s *Solution) VisitEdges(fn func(graph.EdgeID)) {
	for _, le := range s.Layers {
		for _, paths := range [2][]graph.Path{le.InterPaths, le.InnerPaths} {
			for _, p := range paths {
				for _, e := range p.Edges {
					fn(e)
				}
			}
		}
	}
	for _, e := range s.TailPath.Edges {
		fn(e)
	}
}

// VisitNodes calls fn for every substrate node hosting one of the
// embedding's VNF instances — the regular VNFs plus rented mergers of
// parallel layers. Pure transit nodes are not reported: a transit node's
// failure manifests as its incident links failing, which VisitEdges
// covers. Nodes hosting several instances are visited once per instance.
func (s *Solution) VisitNodes(fn func(graph.NodeID)) {
	for _, le := range s.Layers {
		for _, v := range le.Nodes {
			fn(v)
		}
		if len(le.Nodes) > 1 {
			fn(le.MergerNode)
		}
	}
}

// String renders the assignment skeleton, e.g.
// "L1{5}->L2{7,9|m:7}->t:path(3)".
func (s *Solution) String() string {
	var b strings.Builder
	for i, le := range s.Layers {
		if i > 0 {
			b.WriteString("->")
		}
		fmt.Fprintf(&b, "L%d{", i+1)
		for j, v := range le.Nodes {
			if j > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", v)
		}
		if len(le.Nodes) > 1 {
			fmt.Fprintf(&b, "|m:%d", le.MergerNode)
		}
		b.WriteByte('}')
	}
	fmt.Fprintf(&b, "->t:path(%d)", s.TailPath.Len())
	return b.String()
}
