package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dagsfc/internal/network"
)

// widthWatch records the widest candidate set any (layer, start) build
// generated and the widest frontier any layer kept.
type widthWatch struct{ generated, kept int }

// embed runs p traced and widens w by what the trace's candidates and layer
// spans report, a list that leaves its pairs pending by the most they hold.
func (w *widthWatch) embed(p *Problem, opts Options) (*Result, error) {
	res, tr, err := embedTraced(p, opts)
	for _, c := range findSpans(tr.Root(), "candidates") {
		w.generated = max(w.generated, intAttr(c, "generated"), intAttr(c, "pending_pairs")*algorithms[opts.alg].assignments)
	}
	for _, layer := range tr.Root().Children() {
		if strings.HasPrefix(layer.Name(), "layer ") {
			w.kept = max(w.kept, intAttr(layer, "kept"))
		}
	}
	return res, err
}

// TestSafetyValvesNeverBindUnderMBBE is why the two valves are constants
// and not options: over the MBBE rows of TestRewriteGolden and the Table 2
// flows of TestParallelLayerHorizonAndWork no build generates as many as
// maxExtensionsPerStart candidates and no layer keeps as many as
// maxSubSolutionsPerLayer sub-solutions, so neither ever truncates. A change
// to mergers × assignments that starts to reach them fails here first.
func TestSafetyValvesNeverBindUnderMBBE(t *testing.T) {
	var w widthWatch
	embed := func(p *Problem, opts Options) {
		if _, err := w.embed(p, opts); err != nil && !errors.Is(err, ErrNoEmbedding) {
			t.Fatal(err)
		}
	}
	for _, cfg := range goldenConfigs() {
		if !algorithms[cfg.opts.alg].miniPath {
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			embed(randomProblem(rand.New(rand.NewSource(seed)), 60, 6, 4), cfg.opts)
		}
	}
	for _, p := range tableTwoFlows(60) {
		embed(p, MBBEOptions())
	}
	if w.generated == 0 || w.kept == 0 {
		t.Fatal("vacuous: the traces hold no build and no layer")
	}
	if w.generated >= maxExtensionsPerStart || w.kept >= maxSubSolutionsPerLayer {
		t.Fatalf("widest build %d candidates (valve at %d), widest layer %d sub-solutions (valve at %d)",
			w.generated, maxExtensionsPerStart, w.kept, maxSubSolutionsPerLayer)
	}
	t.Logf("widest build %d of %d, widest layer %d of %d", w.generated, maxExtensionsPerStart, w.kept, maxSubSolutionsPerLayer)
}

// TestLayerCapBoundsFrontier runs MBBE down six consecutive parallel layers
// and a last single-VNF one: with Xd children per parent the sub-solution
// tree would be Xd^6 = 4096 wide at the sixth, and the layer cap is all that
// bounds it. (A parallel last layer is searched best-first and keeps only
// what its answer needs.)
func TestLayerCapBoundsFrontier(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 60, 6, 4)
	p.SFC = fromWidths([][]network.VNFID{{1, 2}, {3, 4}, {5, 6}, {1, 2}, {3, 4}, {5, 6}, {1}})
	res, tr, err := embedTraced(p, MBBEOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	layer := findChildren(tr.Root(), "layer 6")[0]
	if kept, parents := intAttr(layer, "kept"), intAttr(layer, "parents"); kept != maxSubSolutionsPerLayer || parents*algorithms[mbbe].xd <= kept {
		t.Fatalf("layer 6 kept %d sub-solutions of %d parents' children, want the cap of %d to bind and to hold",
			kept, parents, maxSubSolutionsPerLayer)
	}
}
