package core

import (
	"math/rand"
	"slices"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// searchFixture builds a ladder network for search tests:
//
//	0 - 1 - 2 - 3   with 4 hanging off 1, 5 hanging off 2.
//
// f(1)@2, f(2)@4, merger(3)@5.
func searchFixture() *Problem {
	g := graph.New(6)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	g.MustAddEdge(1, 4, 1, 10)
	g.MustAddEdge(2, 5, 1, 10)
	net := network.New(g, network.Catalog{N: 2})
	net.MustAddInstance(2, 1, 10, 10)
	net.MustAddInstance(4, 2, 10, 10)
	net.MustAddInstance(5, network.VNFID(3), 1, 10)
	return &Problem{Net: net, Src: 0, Dst: 3, Rate: 1, Size: 1}
}

func TestForwardSearchStopsAtCoverage(t *testing.T) {
	p := searchFixture()
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1, 2}})
	if !tree.Covered() {
		t.Fatal("search did not cover")
	}
	// From 0: it needs f(1)@2 and f(2)@4, both two hops out: iterations
	// 1 (just 0), 2 ({1}), 3 ({2,4}).
	if tree.Iterations() != 3 {
		t.Fatalf("iterations = %d, want 3", tree.Iterations())
	}
	// Node 3 and 5 are three hops away; the search must stop before them.
	if tree.NodeOf(3) != nil || tree.NodeOf(5) != nil {
		t.Fatal("search expanded past coverage")
	}
}

func TestSearchRootCoverage(t *testing.T) {
	p := searchFixture()
	tree := testSearch(p, 2, searchConfig{mem: &searchMem{}, required: []network.VNFID{1}})
	if !tree.Covered() || tree.Size() != 1 {
		t.Fatalf("root-covered search expanded: size=%d covered=%v", tree.Size(), tree.Covered())
	}
}

func TestSearchGraphExhaustedUncovered(t *testing.T) {
	p := searchFixture()
	mem := &searchMem{}
	// Category 2 exists only at node 4; confine the search to a forward
	// search cut off at {0,1,2} so it can never be found.
	fst := testSearch(p, 0, searchConfig{mem: mem, required: []network.VNFID{2}, maxNodes: 3})
	if fst.Size() != 3 || fst.NodeOf(4) != nil {
		t.Fatalf("the confining search holds %d nodes, node 4 among them: %v", fst.Size(), fst.NodeOf(4) != nil)
	}
	tree := testSearch(p, 0, searchConfig{
		mem:      mem,
		required: []network.VNFID{2},
		within:   fst,
	})
	if tree.Covered() {
		t.Fatal("covered without the category present")
	}
	if tree.NodeOf(4) != nil {
		t.Fatal("search escaped the within restriction")
	}
}

func TestSearchXmaxBudget(t *testing.T) {
	p := searchFixture()
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1, 2}, maxNodes: 2})
	if tree.Covered() {
		t.Fatal("covered despite tiny budget")
	}
	if tree.Size() > 2 {
		t.Fatalf("size %d exceeds Xmax 2", tree.Size())
	}
}

func TestSearchAvailableRespectsCapacity(t *testing.T) {
	p := searchFixture()
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveInstance(2, 1, 10); err != nil { // exhaust f(1)@2
		t.Fatal(err)
	}
	p.Ledger = ledger
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1}})
	if tree.Covered() {
		t.Fatal("exhausted instance counted as available")
	}
}

func TestSearchEdgeCapacityBlocks(t *testing.T) {
	p := searchFixture()
	ledger := network.NewLedger(p.Net)
	if err := ledger.ReserveEdge(0, 10); err != nil { // cut 0-1
		t.Fatal(err)
	}
	p.Ledger = ledger
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1}})
	if tree.Covered() || tree.Size() != 1 {
		t.Fatal("search crossed a saturated link")
	}
}

func TestSearchTreeBinaryShape(t *testing.T) {
	p := searchFixture()
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1, 2}})
	root := tree.Root
	if root.Node != 0 || root.Iteration != 1 {
		t.Fatalf("root = %+v", root)
	}
	// Iteration 2 = {1}: the left child of the root.
	if root.Left == nil || root.Left.Node != 1 {
		t.Fatalf("root.Left = %+v", root.Left)
	}
	// Iteration 3 = {2,4} chained via Right.
	lv3 := tree.Level(3)
	if len(lv3) != 2 {
		t.Fatalf("level 3 = %d nodes, want 2", len(lv3))
	}
	first := lv3[0]
	if first.Right == nil || first.Right != lv3[1] {
		t.Fatal("same-iteration nodes not chained via Right")
	}
	if lv3[1].Right != nil {
		t.Fatal("last level node should have no Right")
	}
	// The leftmost node of each level must be someone's Left child.
	if first.Father.Left != first {
		t.Fatal("first node of level is not its father's Left child")
	}
}

func TestSearchTreePathToRoot(t *testing.T) {
	p := searchFixture()
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1, 2}})
	tn := tree.NodeOf(4)
	if tn == nil {
		t.Fatal("node 4 not discovered")
	}
	path := tree.PathToRoot(tn)
	if path.From != 4 || path.To(p.Net.G) != 0 {
		t.Fatalf("path %v runs %d->%d, want 4->0", path, path.From, path.To(p.Net.G))
	}
	if err := path.Validate(p.Net.G); err != nil {
		t.Fatal(err)
	}
	if path.Len() != 2 {
		t.Fatalf("path len %d, want 2", path.Len())
	}
}

func TestSearchTreePathEnumeration(t *testing.T) {
	// Diamond: two distinct 2-hop routes 0->3; both should be enumerable
	// when node 3 is adjacent to two previous-iteration nodes.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(3, 1, 1, 10)
	p := &Problem{Net: net, Src: 0, Dst: 3, Rate: 1, Size: 1}

	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1}})
	tn := tree.NodeOf(3)
	if tn == nil {
		t.Fatal("node 3 not found")
	}
	if len(tn.Prev) != 2 {
		t.Fatalf("node 3 has %d prev links, want 2", len(tn.Prev))
	}
	paths := tree.PathsToRoot(tn, 10)
	if len(paths) != 2 {
		t.Fatalf("enumerated %d paths, want 2", len(paths))
	}
	for _, path := range paths {
		if path.Validate(p.Net.G) != nil || path.To(p.Net.G) != 0 {
			t.Fatalf("bad enumerated path %v", path)
		}
	}
	if paths[0].Equal(paths[1]) {
		t.Fatal("duplicate paths enumerated")
	}
	// Cap respected.
	if got := tree.PathsToRoot(tn, 1); len(got) != 1 {
		t.Fatalf("cap 1 returned %d paths", len(got))
	}
}

func TestNodesByKeyOrdersByDiscovery(t *testing.T) {
	p := searchFixture()
	// Both f(1)@2 (2 hops) and a closer deployment f(1)@1 (1 hop).
	p.Net.MustAddInstance(1, 1, 99, 10)
	tree := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: []network.VNFID{1, 2}})
	var hosts [1][]*TreeNode
	tree.nodesByKey(hosts[:], []network.VNFID{1}, tree.Size(), nil)
	if got := nodeIDs(hosts[0]); !slices.Equal(got, []graph.NodeID{1, 2}) {
		t.Fatalf("hosts order = %v, want [1 2]", got)
	}
}

func TestSearchDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 40, 5, 4)
	req := p.LayerSpecs()[0].appendRequired(nil, p.Net.Catalog)
	a := testSearch(p, p.Src, searchConfig{mem: &searchMem{}, required: req})
	b := testSearch(p, p.Src, searchConfig{mem: &searchMem{}, required: req})
	if a.Size() != b.Size() || a.Iterations() != b.Iterations() {
		t.Fatal("identical searches diverged")
	}
}
