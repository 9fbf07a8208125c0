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
// spans report.
func (w *widthWatch) embed(p *Problem, opts Options) (*Result, error) {
	res, tr, err := embedTraced(p, opts)
	for _, c := range findSpans(tr.Root(), "candidates") {
		w.generated = max(w.generated, intAttr(c, "generated"))
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
		if !cfg.opts.MiniPath {
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

// TestLayerCapBoundsFrontier runs MBBE down six consecutive parallel layers:
// with Xd children per parent the sub-solution tree would be Xd^6 = 4096
// wide at the last one, and the layer cap is all that bounds it.
func TestLayerCapBoundsFrontier(t *testing.T) {
	p := randomProblem(rand.New(rand.NewSource(5)), 60, 6, 4)
	p.SFC = fromWidths([][]network.VNFID{{1, 2}, {3, 4}, {5, 6}, {1, 2}, {3, 4}, {5, 6}})
	var w widthWatch
	res, err := w.embed(p, MBBEOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if w.kept != maxSubSolutionsPerLayer {
		t.Fatalf("widest layer kept %d sub-solutions, want the cap of %d to bind and to hold", w.kept, maxSubSolutionsPerLayer)
	}
}
