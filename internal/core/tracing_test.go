package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
)

// findChildren returns s's direct children with the given name.
func findChildren(s *telemetry.Span, name string) []*telemetry.Span {
	var out []*telemetry.Span
	for _, c := range s.Children() {
		if c.Name() == name {
			out = append(out, c)
		}
	}
	return out
}

// TestTraceMatchesPaperExample runs BBE on the Fig. 3 reconstruction with
// a TraceRecorder and cross-checks the span tree's per-layer attributes —
// forward/backward tree sizes, candidates kept, cheapest cumulative cost —
// against the same run observed directly through a FuncObserver, and
// against the invariants TestPaperFig3ForwardBackwardWalk asserts (the
// layer-2 forward tree covers in 3 iterations discovering 1+2+3 nodes).
func TestTraceMatchesPaperExample(t *testing.T) {
	p := fig3Problem()
	rec := NewTraceRecorder("bbe")

	// Ground truth captured straight from the Observer stream.
	type searchObs struct {
		forward  bool
		start    graph.NodeID
		treeSize int
		covered  bool
	}
	var searches []searchObs
	type layerObs struct {
		kept     int
		cheapest float64
	}
	layerDone := map[int]layerObs{}
	witness := FuncObserver{
		OnSearchDone: func(layer int, start graph.NodeID, forward bool, size int, covered bool) {
			if layer == 2 {
				searches = append(searches, searchObs{forward: forward, start: start, treeSize: size, covered: covered})
			}
		},
		OnLayerDone: func(spec LayerSpec, kept int, cheapest float64) {
			layerDone[spec.Index] = layerObs{kept: kept, cheapest: cheapest}
		},
	}

	opts := BBEOptions()
	opts.Observer = MultiObserver{rec, witness}
	res, err := Embed(p, opts)
	rec.Finish(res, err)
	if err != nil {
		t.Fatal(err)
	}

	root := rec.Trace().Root()
	if root.Attr("alg") != "bbe" {
		t.Fatalf("root alg = %v", root.Attr("alg"))
	}
	if root.Attr("total_cost") != res.Cost.Total() {
		t.Fatalf("root total_cost = %v, want %v", root.Attr("total_cost"), res.Cost.Total())
	}
	if root.Attr("tree_nodes") != res.Stats.TreeNodes {
		t.Fatalf("root tree_nodes = %v, want %v", root.Attr("tree_nodes"), res.Stats.TreeNodes)
	}

	layers := make(map[string]*telemetry.Span)
	for _, c := range root.Children() {
		if strings.HasPrefix(c.Name(), "layer ") {
			layers[c.Name()] = c
		}
	}
	if len(layers) != 2 {
		t.Fatalf("trace has %d layer spans, want 2", len(layers))
	}

	// Per-layer kept/cheapest attributes match the direct observation.
	for idx, span := range map[int]*telemetry.Span{1: layers["layer 1"], 2: layers["layer 2"]} {
		want := layerDone[idx]
		if span.Attr("kept") != want.kept {
			t.Fatalf("layer %d kept = %v, want %d", idx, span.Attr("kept"), want.kept)
		}
		if span.Attr("cheapest") != want.cheapest {
			t.Fatalf("layer %d cheapest = %v, want %v", idx, span.Attr("cheapest"), want.cheapest)
		}
		if span.Duration() <= 0 {
			t.Fatalf("layer %d span has no duration", idx)
		}
	}

	// Layer 2's forward search: the Fig. 3 walk discovers {vA}, {vB,vH},
	// {vC,vE,vL} over three iterations — 6 tree nodes, covering.
	l2 := layers["layer 2"]
	fwd := findChildren(l2, "forward-search")
	if len(fwd) != 1 {
		t.Fatalf("layer 2 has %d forward-search spans, want 1", len(fwd))
	}
	if fwd[0].Attr("tree_size") != 6 || fwd[0].Attr("covered") != true {
		t.Fatalf("layer 2 forward search attrs: tree_size=%v covered=%v, want 6/true",
			fwd[0].Attr("tree_size"), fwd[0].Attr("covered"))
	}
	if fwd[0].Attr("start") != int(fig3vA) {
		t.Fatalf("layer 2 forward search start = %v, want %d", fwd[0].Attr("start"), fig3vA)
	}

	// Backward-search spans nest inside the candidates span and mirror the
	// observed backward searches one-to-one.
	cands := findChildren(l2, "candidates")
	if len(cands) != 1 {
		t.Fatalf("layer 2 has %d candidates spans, want 1", len(cands))
	}
	bwdSpans := findChildren(cands[0], "backward-search")
	var wantBwd []searchObs
	for _, s := range searches {
		if !s.forward {
			wantBwd = append(wantBwd, s)
		}
	}
	if len(bwdSpans) != len(wantBwd) || len(bwdSpans) == 0 {
		t.Fatalf("backward-search spans = %d, observed = %d (want equal, nonzero)", len(bwdSpans), len(wantBwd))
	}
	for i, span := range bwdSpans {
		if span.Attr("tree_size") != wantBwd[i].treeSize ||
			span.Attr("covered") != wantBwd[i].covered ||
			span.Attr("start") != int(wantBwd[i].start) {
			t.Fatalf("backward span %d attrs %v/%v/%v != observed %+v",
				i, span.Attr("start"), span.Attr("tree_size"), span.Attr("covered"), wantBwd[i])
		}
	}

	// The filter span carries the layer's pruning counters.
	filters := findChildren(l2, "filter")
	if len(filters) != 1 {
		t.Fatalf("layer 2 has %d filter spans, want 1", len(filters))
	}
	if filters[0].Attr("considered").(int) < layerDone[2].kept {
		t.Fatalf("filter considered %v < kept %d", filters[0].Attr("considered"), layerDone[2].kept)
	}

	// The closure row reports the leaves the run closed to the destination.
	closure := findChildren(root, "closure")
	if len(closure) != 1 || closure[0].Attr("leaves") != res.Stats.ClosureLeaves ||
		closure[0].Attr("tree_nodes") != res.Stats.ClosureTreeNodes || res.Stats.ClosureLeaves == 0 {
		t.Fatalf("closure spans %v, want one with leaves=%d tree_nodes=%d", closure, res.Stats.ClosureLeaves, res.Stats.ClosureTreeNodes)
	}

	// The generated/kept attributes on the candidates span agree with the
	// run's aggregate stats (single start per layer in this instance).
	if cands[0].Attr("generated") == nil || cands[0].Attr("kept") == nil {
		t.Fatal("candidates span missing generated/kept attrs")
	}

	// The JSON dump round-trips with the documented schema.
	var b bytes.Buffer
	if err := rec.Trace().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Attrs    map[string]any
		Children []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "embed" || len(decoded.Children) < 2 {
		t.Fatalf("JSON dump shape: %s", b.String())
	}

	// And the human rendering mentions every phase.
	var r bytes.Buffer
	if err := rec.Trace().Render(&r); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"embed alg=bbe", "layer 2", "forward-search", "backward-search", "candidates", "filter"} {
		if !strings.Contains(r.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, r.String())
		}
	}
}

// TestTraceRecorderOnFailure checks a run that finds no embedding still
// yields a closed trace carrying the error.
func TestTraceRecorderOnFailure(t *testing.T) {
	p := fig3Problem()
	p.Rate = 100 // over every instance capacity
	rec := NewTraceRecorder("mbbe")
	opts := MBBEOptions()
	opts.Observer = rec
	res, err := Embed(p, opts)
	rec.Finish(res, err)
	if err == nil {
		t.Fatal("expected failure")
	}
	root := rec.Trace().Root()
	if root.Attr("error") == nil {
		t.Fatal("error attr missing")
	}
	var b bytes.Buffer
	if err := rec.Trace().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
}
