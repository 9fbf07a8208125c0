package core

import (
	"fmt"
	"strings"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// TraceRecorder is an Observer that captures one Embed run as a
// telemetry span tree:
//
//	embed (alg, layers, total_cost | error, search stats)
//	├─ layer L (vnfs, merger, parents, kept, cheapest)
//	│  ├─ forward-search (start, tree_size, covered)
//	│  ├─ candidates (start, generated, kept)    ← candidate generation
//	│  │  ├─ backward-search (start, tree_size, covered)
//	│  │  └─ ...
//	│  ├─ filter (considered, capacity_rejected, delay_rejected)
//	│  └─ layered-run (layers, seeds, settled, exits, kept, fallback)
//	├─ ...
//	└─ closure (leaves, tree_nodes)
//
// A run of single-VNF layers answered by the layered kernel shows its one
// search, its filter and a layered-run event span under the run's first
// layer; the run's later layers are rows with no children. The closure
// row is an event span Finish adds when the run closed leaves to the
// destination (a terminal layered run closes none): how many, and how many
// nodes the tree rooted at the destination settled to reach them all.
//
// Search spans are timed exactly (SearchStart→SearchDone); a candidates
// span covers everything between a forward search finishing and its
// extensions being trimmed, which contains the layer's backward searches
// and assignment enumeration. The filter span is an event span (zero
// duration) carrying the layer's pruning counters. Like every Observer,
// a TraceRecorder serves one Embed run on one goroutine; call Finish
// after Embed returns, then Trace for the result.
type TraceRecorder struct {
	trace  *telemetry.Trace
	layer  *telemetry.Span
	search *telemetry.Span
	cand   *telemetry.Span
}

// NewTraceRecorder starts recording; alg labels the run ("bbe", "mbbe").
func NewTraceRecorder(alg string) *TraceRecorder {
	t := telemetry.NewTrace("embed")
	t.Root().SetAttr("alg", alg)
	return &TraceRecorder{trace: t}
}

// vnfsString renders a layer's VNF set as "f2|f3|f4".
func vnfsString(vnfs []network.VNFID) string {
	parts := make([]string, len(vnfs))
	for i, f := range vnfs {
		parts[i] = fmt.Sprintf("f%d", f)
	}
	return strings.Join(parts, "|")
}

// LayerStart implements Observer.
func (t *TraceRecorder) LayerStart(spec LayerSpec, parents int) {
	t.closeCandidates()
	if t.layer != nil {
		t.layer.End() // defensive: LayerDone should have fired
	}
	t.layer = t.trace.Root().StartChild(fmt.Sprintf("layer %d", spec.Index))
	t.layer.SetAttr("vnfs", vnfsString(spec.VNFs))
	t.layer.SetAttr("merger", spec.Merger)
	t.layer.SetAttr("parents", parents)
}

// SearchStart implements Observer.
func (t *TraceRecorder) SearchStart(layer int, start graph.NodeID, forward bool) {
	if t.layer == nil {
		return
	}
	name := "backward-search"
	parent := t.cand
	if forward {
		name = "forward-search"
		t.closeCandidates()
		parent = nil
	}
	if parent == nil {
		parent = t.layer
	}
	t.search = parent.StartChild(name)
	t.search.SetAttr("start", int(start))
}

// SearchDone implements Observer.
func (t *TraceRecorder) SearchDone(layer int, start graph.NodeID, forward bool, treeSize int, covered bool) {
	if t.search != nil {
		t.search.SetAttr("tree_size", treeSize)
		t.search.SetAttr("covered", covered)
		t.search.End()
		t.search = nil
	}
	if forward && t.layer != nil {
		// Everything until ExtensionsBuilt is candidate generation for
		// this start: backward searches, assignment enumeration, path
		// instantiation, and the per-start trim.
		t.cand = t.layer.StartChild("candidates")
		t.cand.SetAttr("start", int(start))
	}
}

// ExtensionsBuilt implements Observer.
func (t *TraceRecorder) ExtensionsBuilt(layer int, start graph.NodeID, generated, kept int) {
	if t.cand == nil && t.layer != nil {
		t.cand = t.layer.StartChild("candidates")
		t.cand.SetAttr("start", int(start))
	}
	if t.cand != nil {
		t.cand.SetAttr("generated", generated)
		t.cand.SetAttr("kept", kept)
		t.cand.End()
		t.cand = nil
	}
}

// CandidatesFiltered implements Observer.
func (t *TraceRecorder) CandidatesFiltered(layer int, considered, capacityRejected, delayRejected int) {
	t.closeCandidates()
	if t.layer == nil {
		return
	}
	f := t.layer.StartChild("filter")
	f.SetAttr("considered", considered)
	f.SetAttr("capacity_rejected", capacityRejected)
	f.SetAttr("delay_rejected", delayRejected)
	f.End()
}

// LayeredRun implements Observer.
func (t *TraceRecorder) LayeredRun(run LayeredRun) {
	t.closeCandidates()
	if t.layer == nil {
		return
	}
	r := t.layer.StartChild("layered-run")
	r.SetAttr("layers", fmt.Sprintf("%d-%d", run.First, run.Last))
	r.SetAttr("terminal", run.Terminal)
	r.SetAttr("seeds", run.Seeds)
	r.SetAttr("settled", fmt.Sprintf("%d/%d", run.Settled, run.States))
	r.SetAttr("exits", run.Exits)
	r.SetAttr("kept", run.Kept)
	if run.Fallback != "" {
		r.SetAttr("fallback", run.Fallback)
	}
	r.End()
}

// LayerDone implements Observer.
func (t *TraceRecorder) LayerDone(spec LayerSpec, kept int, cheapest float64) {
	t.closeCandidates()
	if t.layer == nil {
		return
	}
	t.layer.SetAttr("kept", kept)
	t.layer.SetAttr("cheapest", cheapest)
	t.layer.End()
	t.layer = nil
}

// Leaf implements Observer.
func (t *TraceRecorder) Leaf(total float64) {
	t.trace.Root().SetAttr("total_cost", total)
}

func (t *TraceRecorder) closeCandidates() {
	if t.cand != nil {
		t.cand.End()
		t.cand = nil
	}
}

// Finish closes the trace after Embed returns, attaching the run's search
// statistics and, on failure, the error.
func (t *TraceRecorder) Finish(res *Result, err error) {
	root := t.trace.Root()
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	if res != nil {
		root.SetAttr("tree_nodes", res.Stats.TreeNodes)
		root.SetAttr("forward_searches", res.Stats.ForwardSearches)
		root.SetAttr("backward_searches", res.Stats.BackwardSearches)
		root.SetAttr("extensions", res.Stats.Extensions)
		root.SetAttr("sub_solutions", res.Stats.SubSolutions)
		root.SetAttr("layered_runs", res.Stats.LayeredRuns)
		root.SetAttr("layered_fallbacks", res.Stats.LayeredFallbacks)
		root.SetAttr("path_tree_nodes", res.Stats.PathTreeNodes)
		if res.Stats.ClosureLeaves > 0 {
			c := root.StartChild("closure")
			c.SetAttr("leaves", res.Stats.ClosureLeaves)
			c.SetAttr("tree_nodes", res.Stats.ClosureTreeNodes)
			c.End()
		}
	}
	t.trace.Finish()
}

// Trace returns the recorded span tree; call after Finish.
func (t *TraceRecorder) Trace() *telemetry.Trace { return t.trace }
