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

// LayeredRun summarises one run of single-VNF layers the layered kernel
// searched (Observer.LayeredRun).
type LayeredRun struct {
	// First and Last are the 1-based indices of the run's first and last
	// layer.
	First, Last int
	// Terminal marks a run that reaches the end of the SFC: it is searched
	// through to the destination and yields the complete solution.
	Terminal bool
	// Seeds is the number of distinct frontier end nodes the search
	// started from; Settled the states it settled before stopping, of the
	// States in the stack it searched (one copy of the substrate per layer
	// and one to leave from).
	Seeds, Settled, States int
	// Exits is the number of walks the search proposed (at most one for a
	// terminal run), Kept those that passed the capacity checks.
	Exits, Kept int
	// Fallback is empty when the run stands. Otherwise it says why the
	// per-layer search took the run over ("capacity": every proposal was
	// turned down by feasibleAfter or Validate).
	Fallback string
}

// layeredRun searches the width-1 layers run[0..] from the frontier with
// one layered Dijkstra. A terminal run (one that ends the SFC) is searched
// to the destination and returns the complete Result; any other stops at
// the cheapest few exit states and returns them as the cost-sorted
// frontier of the parallel layer that follows. All three results nil means
// every proposal failed a capacity check: the caller searches the run
// layer by layer. An error means the layered graph holds no walk at all —
// then no embedding exists, since every per-layer candidate is such a walk.
func (e *embedder) layeredRun(run []LayerSpec, frontier []*subSolution, terminal bool) ([]*subSolution, *Result, error) {
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
			q.PotLink, q.PotRent = e.treeFor(p.Dst, graph.None).Dist, m.potRent
		}
	} else {
		// The width a single such layer gets from the per-layer search: Xd
		// children per parent, under the layer-wide cap.
		q.MaxExits = n
		if e.opts.Xd > 0 {
			q.MaxExits = e.opts.Xd * len(seeds)
		}
		q.MaxExits = min(q.MaxExits, maxSubSolutionsPerLayer)
	}
	e.observeSearchStart(first, seeds[0].Node, true)
	ls := e.pathView.LayeredDijkstraWith(sc.Scratch, &q)
	exits := ls.Exits()
	e.stats.LayeredRuns++
	e.stats.ForwardSearches++
	e.stats.TreeNodes += ls.Settled()
	e.observeSearch(first, seeds[0].Node, true, ls.Settled(), len(exits) > 0)
	info := LayeredRun{
		First: first, Last: last, Terminal: terminal,
		Seeds: len(seeds), Settled: ls.Settled(), States: (len(run) + 1) * n, Exits: len(exits),
	}

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
	e.observeFiltered(first, len(exits), rejected, 0)
	info.Kept = len(leaves)
	if rejected > 0 && len(leaves) == 0 {
		e.stats.LayeredFallbacks++
		info.Fallback = "capacity"
	}
	e.recordLayeredRun(info)
	switch {
	case len(exits) == 0:
		return nil, nil, fmt.Errorf("%w: layers %d–%d: no walk through hosts with spare capacity leaves the frontier",
			ErrNoEmbedding, first, last)
	case len(leaves) == 0:
		return nil, nil, nil
	}
	slices.SortFunc(leaves, bySubCost)
	e.stats.SubSolutions += len(run) * len(leaves)
	e.observeRunLayers(run, leaves)
	if res != nil {
		res.Stats = e.stats
		e.observeLeaf(res.Cost.Total())
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

// observeRunLayers reports the rows of a run the kernel answered: every
// layer gets its LayerStart/LayerDone pair in order (the first layer's
// LayerStart has already fired), with the surviving chains as the
// sub-solutions kept and the cheapest cumulative cost among them at that
// layer.
func (e *embedder) observeRunLayers(run []LayerSpec, leaves []*subSolution) {
	if e.opts.Observer == nil {
		return
	}
	for j, spec := range run {
		if j > 0 {
			e.observeLayerStart(spec, len(leaves))
		}
		cheapest := graph.Inf
		for _, ss := range leaves {
			for up := len(run) - 1 - j; up > 0; up-- {
				ss = ss.parent
			}
			cheapest = min(cheapest, ss.cum)
		}
		e.observeLayerDone(spec, len(leaves), cheapest)
	}
}

// recordLayeredRun publishes one run's outcome to the observer and the
// metrics registry.
func (e *embedder) recordLayeredRun(info LayeredRun) {
	if e.opts.Observer != nil {
		e.opts.Observer.LayeredRun(info)
	}
	telemetry.RecordLayeredRun(e.opts.Label, info.Fallback != "", info.Settled)
}
