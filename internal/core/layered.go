package core

import (
	"fmt"
	"slices"

	"dagsfc/internal/graph"
	"dagsfc/internal/telemetry"
)

// This file hands maximal runs of single-VNF layers to the layered
// shortest-path kernel (graph.LayeredDijkstraWith). For such a run the
// forward search, the sub-solution tree and its pruning degenerate to one
// shortest path through stacked copies of the substrate — layer j's copy
// holds the walk while it looks for a host of the run's j-th VNF — so the
// kernel's answer is the optimum for the frontier it was seeded with, not
// a beam's best guess. What the kernel cannot see is capacity shared
// between arcs (it prices every link and instance use on its own), so
// each proposal still passes feasibleAfter, and a complete one Validate
// and ComputeCost, before it counts; when none does the run is searched
// layer by layer instead (run's perLayerUntil).

// layeredRun searches the width-1 layers run[0..] from the frontier with
// one layered Dijkstra. A terminal run (one that ends the SFC) is searched
// to the destination and returns the complete Result; any other stops at
// the cheapest few exit states and returns them as the cost-sorted
// frontier of the parallel layer that follows. All three results nil means
// every proposal failed a capacity check: the caller searches the run
// layer by layer. An error means the layered graph holds no walk at all —
// then no embedding exists, since every per-layer candidate is such a walk.
//
// The run is traced as one layered-run span under sp, the span of its first
// layer; the rows of the layers it answered close when it stands.
func (e *embedder) layeredRun(run []LayerSpec, frontier []*subSolution, terminal bool, sp *telemetry.Span) ([]*subSolution, *Result, error) {
	p, sc := e.p, e.sc
	m := sc.mem
	n := p.Net.G.NumNodes()
	first, last := run[0].Index, run[len(run)-1].Index

	// Seeds: the cheapest sub-solution per distinct end node (the frontier
	// is cost-sorted). A costlier one ending on the same node offers the
	// same continuations at a higher price.
	seedOf := m.subPtrs.alloc(n)
	seeds := m.seeds[:0]
	for _, ss := range frontier {
		if v := ss.endNode(p.Src); seedOf[v] == nil {
			seedOf[v] = ss
			seeds = append(seeds, graph.LayeredSeed{Node: v, Dist: ss.cum / p.Size})
		}
	}
	m.seeds = seeds
	span := startLayeredRun(sp, first, last, terminal, len(seeds))
	m.rents = sized(m.rents, len(run))
	for j, spec := range run {
		m.rents[j] = p.Net.Rents(spec.VNFs[0])
	}
	q := graph.LayeredQuery{
		Rent:  m.rents,
		Seeds: seeds,
		// The forward search's availability test, asked only for the hosts
		// the walk reaches.
		Admit: func(layer int, v graph.NodeID) bool {
			return e.res.instance(v, run[layer].VNFs[0]) >= p.Rate
		},
		Target: graph.None,
	}
	if terminal {
		// One target: direct the search at it (graph.LayeredQuery.PotLink).
		// The link term needs the distance of every node, so the tree rooted
		// at the destination is grown to completion.
		q.Target = p.Dst
		if !e.undirected {
			m.potRent = sized(m.potRent, len(run)+1)
			m.potRent[len(run)] = 0
			for j := len(run) - 1; j >= 0; j-- {
				m.potRent[j] = m.potRent[j+1] + p.Net.MinRent(run[j].VNFs[0])
			}
			q.PotLink, q.PotRent = e.toDst, m.potRent
			if q.PotLink == nil {
				q.PotLink, _ = e.destinationTree(span)
			}
		}
	} else {
		// The width a single such layer gets from the per-layer search: X_d
		// children per parent, under the layer-wide cap.
		q.MaxExits = min(e.bounds.xd*len(seeds), maxSubSolutionsPerLayer)
	}
	fwd := startAt(span, "forward-search", seeds[0].Node)
	ls := e.pathView.LayeredDijkstraWith(sc.Scratch, &q)
	exits := ls.Exits()
	e.stats.LayeredRuns++
	e.stats.ForwardSearches++
	e.stats.TreeNodes += ls.Settled()
	endSearch(fwd, ls.Settled(), len(exits) > 0)

	filter := startSpan(span, "filter")
	leaves := m.subPtrs.alloc(len(exits))[:0]
	var res *Result
	for _, x := range exits {
		leaf, tail, ok := e.materialise(ls, x, run, seedOf)
		if ok && terminal {
			res = e.complete(leaf, tail)
			ok = res != nil
		}
		if ok {
			leaves = append(leaves, leaf)
		}
	}
	rejected := len(exits) - len(leaves)
	e.stats.CapacityRejections += rejected
	endFilter(filter, len(exits), rejected, 0)
	fallback := rejected > 0 && len(leaves) == 0
	if fallback {
		e.stats.LayeredFallbacks++
	}
	endLayeredRun(span, ls.Settled(), (len(run)+1)*n, len(exits), len(leaves), fallback)
	telemetry.RecordLayeredRun(e.bounds.label, fallback, ls.Settled())
	switch {
	case len(exits) == 0:
		return nil, nil, fmt.Errorf("%w: layers %d–%d: no walk through hosts with spare capacity leaves the frontier",
			ErrNoEmbedding, first, last)
	case len(leaves) == 0:
		return nil, nil, nil
	}
	slices.SortStableFunc(leaves, bySubCost)
	e.stats.SubSolutions += len(run) * len(leaves)
	e.traceRunLayers(run, leaves, sp)
	if res != nil {
		res.Stats = e.stats
		return nil, res, nil
	}
	return leaves, nil, nil
}

// materialise turns the cheapest walk into exit state x into what the
// per-layer search would have built for it: one arena-backed extension and
// sub-solution per layer of the run, chained onto the frontier
// sub-solution the walk started from, plus (for a terminal run) the tail
// path behind the last host. ok is false when feasibleAfter turns a layer
// down — the walk uses a link or an instance more often than its residual
// allows, which the kernel cannot see.
func (e *embedder) materialise(ls *graph.LayeredSearch, x int, run []LayerSpec, seedOf []*subSolution) (leaf *subSolution, tail graph.Path, ok bool) {
	p, m := e.p, e.sc.mem
	// Walk back to the seed, noting the arc taken at every step.
	walk := m.walk[:0]
	for {
		pred, arc := ls.Pred(x)
		if pred < 0 {
			break
		}
		walk = append(walk, int32(arc))
		x = pred
	}
	m.walk = walk
	_, at := ls.Node(x)
	leaf = seedOf[at]
	// Replay it forwards: link arcs extend the current layer's inter-layer
	// path, a step arc closes the layer on the node the walk stands on.
	start, j := at, 0
	edges := m.edges.reserve(len(walk))
	for i := len(walk) - 1; i >= 0; i-- {
		if arc := int(walk[i]); arc >= 0 {
			a := e.pathView.Arc(arc)
			edges = append(edges, a.Edge)
			at = a.To
			continue
		}
		spec := run[j]
		nodes, paths := m.nodeIDs.alloc(1), m.paths.alloc(1)
		nodes[0], paths[0] = at, graph.Path{From: start, Edges: m.edges.commit(edges)}
		ext := buildExtension(m, p, spec, nodes, at, paths, nil)
		if ext == nil || !feasibleAfter(p.Rate, &e.res, leaf, ext) {
			return nil, graph.Path{}, false
		}
		e.stats.Extensions++
		leaf, start, j = e.extend(leaf, ext, spec.Index), at, j+1
		edges = m.edges.reserve(i)
	}
	return leaf, graph.Path{From: start, Edges: m.edges.commit(edges)}, true
}

// traceRunLayers closes the rows of a run the kernel answered: the first
// layer's, sp, and one childless row for each later layer, each with the
// surviving chains as the sub-solutions kept and the least cumulative cost
// among them at that layer.
func (e *embedder) traceRunLayers(run []LayerSpec, leaves []*subSolution, sp *telemetry.Span) {
	if sp == nil {
		return
	}
	for j, spec := range run {
		if j > 0 {
			sp = startLayer(e.opts.Trace, spec, len(leaves))
		}
		cheapest := graph.Inf
		for _, ss := range leaves {
			for up := len(run) - 1 - j; up > 0; up-- {
				ss = ss.parent
			}
			cheapest = min(cheapest, ss.cum)
		}
		endLayer(sp, len(leaves), cheapest)
	}
}
