package core

import (
	"fmt"
	"strings"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
)

// A traced run (Options.Trace set) writes itself into the caller's span,
// every phase opened and closed by the function that does the work:
//
//	embed (alg, total_cost | error, search stats)
//	├─ destination-tree (tree_nodes)            MBBE with a parallel layer
//	├─ layer L (vnfs, merger, parents, kept, cheapest)
//	│  ├─ filter (considered, capacity_rejected, delay_rejected)
//	│  │  ├─ forward-search (start, tree_size, covered)
//	│  │  ├─ candidates (start, generated, kept)
//	│  │  │  └─ backward-search (start, tree_size, covered) …   an eager list
//	│  │  ├─ candidates (start, pending_pairs)
//	│  │  └─ backward-search …                  a lazy list's opened pairs
//	│  └─ layered-run (layers, terminal, seeds, settled, exits, kept, fallback)
//	│     ├─ destination-tree (tree_nodes)      a terminal run that grows it
//	│     ├─ forward-search (start, tree_size, covered)
//	│     └─ filter (considered, capacity_rejected, delay_rejected)
//	├─ …
//	└─ closure (leaves, tree_nodes)
//
// A list is built, and a lazy list's pairs opened, when a screen first reads
// them, so their rows sit under the layer's filter. After a best-first last
// layer (see bestFirst) the closure only counts the leaves its screen closed.
// A run of single-VNF layers a–b that the layered kernel answers is one
// layered-run under layer a, timed around the kernel search and the
// materialisation of its walks; layers a+1…b are rows with no children. On
// a capacity fallback layer a's per-layer search follows in the same row.
// Every helper below does nothing on a nil span: an untraced run spends
// nothing on its trace.

// startSpan opens child name of parent.
func startSpan(parent *telemetry.Span, name string) *telemetry.Span {
	if parent == nil {
		return nil
	}
	return parent.StartChild(name)
}

// endSpan closes sp.
func endSpan(sp *telemetry.Span) {
	if sp != nil {
		sp.End()
	}
}

// startAt opens child name of parent for a phase that starts from one node.
func startAt(parent *telemetry.Span, name string, start graph.NodeID) *telemetry.Span {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild(name)
	sp.SetAttr("start", int(start))
	return sp
}

// endSearch closes a forward- or backward-search span.
func endSearch(sp *telemetry.Span, treeSize int, covered bool) {
	if sp == nil {
		return
	}
	sp.SetAttr("tree_size", treeSize)
	sp.SetAttr("covered", covered)
	sp.End()
}

// endCandidates closes a candidates span: the extensions one start's build
// generated and those its trim kept, or a lazy list's stubs for both.
func endCandidates(sp *telemetry.Span, generated, kept int) {
	if sp == nil {
		return
	}
	sp.SetAttr("generated", generated)
	sp.SetAttr("kept", kept)
	sp.End()
}

// endFilter closes a filter span with the screen's tallies.
func endFilter(sp *telemetry.Span, considered, capacityRejected, delayRejected int) {
	if sp == nil {
		return
	}
	sp.SetAttr("considered", considered)
	sp.SetAttr("capacity_rejected", capacityRejected)
	sp.SetAttr("delay_rejected", delayRejected)
	sp.End()
}

// startLayer opens spec's row under the run's span.
func startLayer(parent *telemetry.Span, spec LayerSpec, parents int) *telemetry.Span {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild(fmt.Sprintf("layer %d", spec.Index))
	parts := make([]string, len(spec.VNFs))
	for i, f := range spec.VNFs {
		parts[i] = fmt.Sprintf("f%d", f)
	}
	sp.SetAttr("vnfs", strings.Join(parts, "|"))
	sp.SetAttr("merger", spec.Merger)
	sp.SetAttr("parents", parents)
	return sp
}

// endLayer closes a layer's row with the sub-solutions it kept and the least
// cumulative cost among them.
func endLayer(sp *telemetry.Span, kept int, cheapest float64) {
	if sp == nil {
		return
	}
	sp.SetAttr("kept", kept)
	sp.SetAttr("cheapest", cheapest)
	sp.End()
}

// startLayeredRun opens the span of one run of single-VNF layers, first
// through last, searched by the layered kernel from seeds end nodes.
func startLayeredRun(parent *telemetry.Span, first, last int, terminal bool, seeds int) *telemetry.Span {
	if parent == nil {
		return nil
	}
	sp := parent.StartChild("layered-run")
	sp.SetAttr("layers", fmt.Sprintf("%d-%d", first, last))
	sp.SetAttr("terminal", terminal)
	sp.SetAttr("seeds", seeds)
	return sp
}

// endLayeredRun closes a layered-run span: the states the search settled of
// the stack's, the walks it proposed, those that passed the capacity checks,
// and whether the per-layer search takes the run over.
func endLayeredRun(sp *telemetry.Span, settled, states, exits, kept int, fallback bool) {
	if sp == nil {
		return
	}
	sp.SetAttr("settled", fmt.Sprintf("%d/%d", settled, states))
	sp.SetAttr("exits", exits)
	sp.SetAttr("kept", kept)
	if fallback {
		sp.SetAttr("fallback", "capacity")
	}
	sp.End()
}

// endClosure closes the closure span: the leaves closed to the destination
// and the nodes the tree rooted there settled to reach them all.
func endClosure(sp *telemetry.Span, leaves, treeNodes int) {
	if sp == nil {
		return
	}
	sp.SetAttr("leaves", leaves)
	sp.SetAttr("tree_nodes", treeNodes)
	sp.End()
}

// traceOutcome writes a run's outcome onto the span it recorded into: the
// algorithm, the total cost or the error, then the search statistics (on
// failure too; nil for a problem Validate refused, which searched nothing).
func traceOutcome(sp *telemetry.Span, alg string, res *Result, err error, st *Stats) {
	if sp == nil {
		return
	}
	sp.SetAttr("alg", alg)
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.SetAttr("total_cost", res.Cost.Total())
	}
	if st == nil {
		return
	}
	sp.SetAttr("tree_nodes", st.TreeNodes)
	sp.SetAttr("forward_searches", st.ForwardSearches)
	sp.SetAttr("backward_searches", st.BackwardSearches)
	sp.SetAttr("extensions", st.Extensions)
	sp.SetAttr("sub_solutions", st.SubSolutions)
	sp.SetAttr("layered_runs", st.LayeredRuns)
	sp.SetAttr("layered_fallbacks", st.LayeredFallbacks)
	sp.SetAttr("path_tree_nodes", st.PathTreeNodes)
}
