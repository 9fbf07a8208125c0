package core

import (
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
)

// sameTreePrefix fails unless the first a.Size() nodes of b are a's, node
// for node and iteration for iteration.
func sameTreePrefix(t *testing.T, a, b *SearchTree) {
	t.Helper()
	if b.Size() < a.Size() {
		t.Fatalf("the longer search found %d nodes, the shorter %d", b.Size(), a.Size())
	}
	for i, tn := range a.nodes {
		if got := b.nodes[i]; got.Node != tn.Node || got.Iteration != tn.Iteration {
			t.Fatalf("node %d: %d@%d, want %d@%d", i, got.Node, got.Iteration, tn.Node, tn.Iteration)
		}
	}
}

// TestSearchRingsPastCoverage pins searchConfig.ringsPast: 0 is Algorithm
// 1's stop rule, 1 adds exactly the next breadth-first ring and nothing
// else, and a budget that runs out inside that ring still leaves a covered
// tree.
func TestSearchRingsPastCoverage(t *testing.T) {
	p := searchFixture()
	required := []network.VNFID{1, 2}
	stop := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: required})
	if !stop.Covered() || stop.Iterations() != 3 || stop.Size() != 4 {
		t.Fatalf("stop at coverage: covered=%v, %d iterations, %d nodes; want 3 and 4", stop.Covered(), stop.Iterations(), stop.Size())
	}
	on := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: required, ringsPast: 1})
	sameTreePrefix(t, stop, on)
	if !on.Covered() || on.Iterations() != 4 || on.Size() != 6 || !on.Contains(3) || !on.Contains(5) {
		t.Fatalf("one ring on: covered=%v, %d iterations, %d nodes; want 4 and all 6", on.Covered(), on.Iterations(), on.Size())
	}
	// More rings than the graph has: the search ends with the graph.
	if all := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: required, ringsPast: 5}); !all.Covered() || all.Iterations() != 4 {
		t.Fatalf("five rings on: covered=%v, %d iterations", all.Covered(), all.Iterations())
	}
	// The root covers: the extra ring is its neighbourhood.
	if root := testSearch(p, 2, searchConfig{mem: &searchMem{}, required: []network.VNFID{1}, ringsPast: 1}); !root.Covered() || root.Iterations() != 2 || root.Size() != 4 {
		t.Fatalf("root-covered search, one ring on: covered=%v, %d iterations, %d nodes; want 2 and 4", root.Covered(), root.Iterations(), root.Size())
	}
	// The budget runs out one node into the extra ring.
	cut := testSearch(p, 0, searchConfig{mem: &searchMem{}, required: required, ringsPast: 1, maxNodes: 5})
	sameTreePrefix(t, stop, cut)
	if !cut.Covered() || cut.Size() != 5 || cut.Iterations() != 4 {
		t.Fatalf("budget exhausted mid-ring: covered=%v, %d nodes, %d iterations; want covered, 5, 4", cut.Covered(), cut.Size(), cut.Iterations())
	}
	// And at the ring's very start: no fourth level is left open.
	if cut = testSearch(p, 0, searchConfig{mem: &searchMem{}, required: required, ringsPast: 1, maxNodes: 4}); !cut.Covered() || cut.Size() != 4 || cut.Iterations() != 3 {
		t.Fatalf("budget exhausted at coverage: covered=%v, %d nodes, %d iterations; want covered, 4, 3", cut.Covered(), cut.Size(), cut.Iterations())
	}
}

// tableTwoFlows draws n flows of the paper's instance shape on one Table 2
// substrate: 500 nodes, size-6 SFCs of two width-3 layers.
func tableTwoFlows(n int) []*Problem {
	cfg := netgen.Default()
	net := netgen.MustGenerate(cfg, rand.New(rand.NewSource(26)))
	rng := rand.New(rand.NewSource(27))
	flows := make([]*Problem, n)
	for i := range flows {
		flows[i] = &Problem{Net: net, Rate: 1, Size: 1,
			SFC: sfcgen.MustGenerate(sfcgen.Config{Size: 6, LayerWidth: 3, VNFKinds: cfg.VNFKinds}, rng),
			Src: graph.NodeID(rng.Intn(cfg.Nodes)), Dst: graph.NodeID(rng.Intn(cfg.Nodes))}
	}
	return flows
}

// TestParallelLayerHorizonAndWork is the wasted-work guard of the
// parallel-layer search on the paper's instance shape (Table 2: 500 nodes,
// size-6 SFCs of two width-3 layers). The forward search of a parallel
// layer is the one runSearch builds with one ring past coverage — on every
// instance the stop-at-coverage tree plus exactly the next ring — and the
// candidates enumerated from it stay few: ranked before they are built, not
// built to be ranked.
func TestParallelLayerHorizonAndWork(t *testing.T) {
	const flows = 60
	extensions, ringThree := 0, 0
	for flow, p := range tableTwoFlows(flows) {
		net, opts := p.Net, MBBEOptions()
		res, tr, err := embedTraced(p, opts)
		if err != nil {
			t.Fatalf("flow %d: %v", flow, err)
		}
		extensions += res.Stats.Extensions
		layer1 := findChildren(tr.Root(), "layer 1")
		if len(layer1) != 1 || len(findChildren(layer1[0], "forward-search")) == 0 {
			t.Fatalf("flow %d: no forward search under layer 1", flow)
		}
		firstFST := intAttr(findChildren(layer1[0], "forward-search")[0], "tree_size")

		required := p.LayerSpecs()[0].Required(net.Catalog)
		stop := testSearch(p, p.Src, searchConfig{mem: &searchMem{}, required: required, maxNodes: opts.Xmax})
		on := testSearch(p, p.Src, searchConfig{mem: &searchMem{}, required: required, maxNodes: opts.Xmax, ringsPast: 1})
		sameTreePrefix(t, stop, on)
		if on.Iterations() != stop.Iterations()+1 {
			t.Fatalf("flow %d: coverage at iteration %d, horizon at %d", flow, stop.Iterations(), on.Iterations())
		}
		if firstFST != on.Size() {
			t.Fatalf("flow %d: the embed's first forward search found %d nodes, one ring past coverage holds %d", flow, firstFST, on.Size())
		}
		if stop.Iterations() == 2 {
			ringThree++
		}
	}
	if ringThree == 0 {
		t.Fatal("vacuous: no instance covered its first layer at iteration 2")
	}
	if mean := float64(extensions) / flows; mean > 130 {
		t.Fatalf("%.1f candidate extensions per embed, want at most 130", mean)
	}
	t.Logf("%.1f extensions per embed; %d of %d first layers covered at iteration 2 and searched to 3",
		float64(extensions)/flows, ringThree, flows)
}
