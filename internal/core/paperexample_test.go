package core

import (
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// TestPaperFig3ForwardBackwardWalk reconstructs the paper's Fig. 3
// example: embedding the second layer of the Fig. 2 DAG-SFC
// ([f2|f3|f4|f5 +merger]) starting from the node hosting f(1). The text
// walks three forward iterations:
//
//	iter 1: {v_a}          F = {f1,f6,f7,merger}      — not covering
//	iter 2: +{v_b,v_h}     F += {f2,f3,f5}            — still missing f4
//	iter 3: +{v_c,v_e,v_l} F += {f4,...}              — covered, stop
//
// and then a backward search from a merger node restricted to the forward
// set. The exact topology of the figure is not fully specified in the
// text, so this reconstruction keeps the discovery schedule and the
// deployment pattern; the invariants checked (iteration count, per-level
// node sets, coverage transitions, BST ⊆ FST) are the ones the paper's
// prose asserts.
// Node names of the Fig. 3 reconstruction, shared with the trace test
// (internal/core/tracing_test.go).
const (
	fig3vA = graph.NodeID(0)
	fig3vB = graph.NodeID(1)
	fig3vH = graph.NodeID(2)
	fig3vC = graph.NodeID(3)
	fig3vE = graph.NodeID(4)
	fig3vL = graph.NodeID(5)
)

// fig3Problem reconstructs the paper's Fig. 3 instance: the Fig. 2
// DAG-SFC's second layer [f2|f3|f4|f5 +merger] embedded from the node
// hosting f(1).
func fig3Problem() *Problem {
	g := graph.New(6)
	g.MustAddEdge(fig3vA, fig3vB, 1, 10)
	g.MustAddEdge(fig3vA, fig3vH, 1, 10)
	g.MustAddEdge(fig3vB, fig3vC, 1, 10)
	g.MustAddEdge(fig3vB, fig3vE, 1, 10)
	g.MustAddEdge(fig3vH, fig3vL, 1, 10)

	// Catalog f(1)..f(7), merger = f(8) as in the paper.
	net := network.New(g, network.Catalog{N: 7})
	merger := net.Catalog.Merger()
	deploy := func(v graph.NodeID, fs ...network.VNFID) {
		for _, f := range fs {
			net.MustAddInstance(v, f, 10, 10)
		}
	}
	deploy(fig3vA, 1, 6, 7, merger)
	deploy(fig3vB, 2, 3)
	deploy(fig3vH, 5)
	deploy(fig3vC, 2, 3, 5)
	deploy(fig3vE, 4)
	deploy(fig3vL, merger)

	return &Problem{
		Net: net,
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{
			{VNFs: []network.VNFID{1}},
			{VNFs: []network.VNFID{2, 3, 4, 5}},
		}},
		Src: fig3vA, Dst: fig3vL, Rate: 1, Size: 1,
	}
}

func TestPaperFig3ForwardBackwardWalk(t *testing.T) {
	const (
		vA = fig3vA
		vB = fig3vB
		vH = fig3vH
		vC = fig3vC
		vE = fig3vE
		vL = fig3vL
	)
	p := fig3Problem()
	net := p.Net
	spec := p.LayerSpecs()[1]

	fst := testSearch(p, vA, searchConfig{mem: &searchMem{}, required: spec.appendRequired(nil, net.Catalog)})
	if !fst.Covered() {
		t.Fatal("forward search did not cover layer 2")
	}
	if fst.Iterations() != 3 {
		t.Fatalf("I^F ran %d iterations, want 3 as in Fig. 3", fst.Iterations())
	}
	wantLevels := [][]graph.NodeID{
		{vA},
		{vB, vH},
		{vC, vE, vL},
	}
	for i, want := range wantLevels {
		level := fst.Level(i + 1)
		if len(level) != len(want) {
			t.Fatalf("iteration %d discovered %d nodes, want %d", i+1, len(level), len(want))
		}
		got := map[graph.NodeID]bool{}
		for _, tn := range level {
			got[tn.Node] = true
		}
		for _, v := range want {
			if !got[v] {
				t.Fatalf("iteration %d missing node %d", i+1, v)
			}
		}
	}

	// Backward search from the merger candidate v_a, restricted to the
	// forward set, must cover the regular VNFs of the layer.
	bst := testSearch(p, vA, searchConfig{mem: &searchMem{}, required: spec.VNFs, within: fst})
	if !bst.Covered() {
		t.Fatal("backward search from v_a did not cover")
	}
	bst.Nodes(func(tn *TreeNode) {
		if fst.NodeOf(tn.Node) == nil {
			t.Fatalf("BST node %d outside the forward set", tn.Node)
		}
	})
	// The BST indexes its nodes by forward-set position: every forward node
	// maps to its own BST node or to none.
	fst.Nodes(func(tn *TreeNode) {
		if b := bst.NodeOf(tn.Node); b != nil && b.Node != tn.Node {
			t.Fatalf("BST looks node %d up as %v", tn.Node, b)
		}
	})

	// And the full embedding must work end to end, renting f(4) at v_e —
	// the only deployment of that category.
	res, err := EmbedBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i, f := range spec.VNFs {
		if f == 4 && res.Solution.Layers[1].Nodes[i] == vE {
			found = true
		}
	}
	if !found {
		t.Fatalf("f(4) not placed at v_e: %s", res.Solution.String())
	}
}
