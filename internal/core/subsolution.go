package core

import (
	"slices"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// edgeUse is one layer's bandwidth demand on a link, in reuse counts.
type edgeUse struct {
	edge  graph.EdgeID
	count int
}

// extension is one feasible way to embed a single layer given the start
// node (the previous layer's end node): the candidate sub-solution of
// §4.4, minus its position in the sub-solution tree. Extensions are
// computed once per (layer, start node) and shared by every sub-solution
// that ends on that start node.
type extension struct {
	endNode    graph.NodeID
	nodes      []graph.NodeID
	interPaths []graph.Path
	innerPaths []graph.Path
	localCost  float64
	// delay is the layer's end-to-end delay contribution; computed only
	// in delay-bounded mode (Options.MaxDelay > 0), else zero.
	delay   float64
	instUse []InstanceUseKey
	edgeUse []edgeUse
}

// subSolution is a node of the paper's sub-solution tree (§4.4.2). The
// tree is stored bottom-up through parent pointers: the path from any
// layer-ω sub-solution back to the root spells out a complete embedding.
type subSolution struct {
	parent *subSolution
	ext    *extension // nil for the root (source node, no cost)
	layer  int
	cum    float64
	// rank is what the frontier is ordered, cut and de-duplicated by: cum
	// plus, in a run that knows the way (embedder.toDst), the price of the
	// cheapest path from the end node on to the destination.
	rank float64
	// cumDelay accumulates layer delays in delay-bounded mode.
	cumDelay float64
}

func (ss *subSolution) endNode(src graph.NodeID) graph.NodeID {
	if ss.ext == nil {
		return src
	}
	return ss.ext.endNode
}

// chainEdgeUse sums the reuse count of edge e along the sub-solution chain.
func (ss *subSolution) chainEdgeUse(e graph.EdgeID) int {
	total := 0
	for cur := ss; cur != nil; cur = cur.parent {
		if cur.ext == nil {
			continue
		}
		for _, u := range cur.ext.edgeUse {
			if u.edge == e {
				total += u.count
			}
		}
	}
	return total
}

// chainInstanceUse sums the uses of instance key along the chain.
func (ss *subSolution) chainInstanceUse(key InstanceUseKey) int {
	total := 0
	for cur := ss; cur != nil; cur = cur.parent {
		if cur.ext == nil {
			continue
		}
		for _, k := range cur.ext.instUse {
			if k == key {
				total++
			}
		}
	}
	return total
}

// feasibleAfter reports whether appending ext to the chain ending at ss, for
// a flow of the given rate, stays within the residual capacities res read
// off the run's ledger.
func feasibleAfter(rate float64, res *residuals, ss *subSolution, ext *extension) bool {
	// Instances: count duplicate uses within ext itself plus the chain. A
	// layer uses at most width+1 instances, so finding each key's first
	// occurrence and multiplicity by scanning beats any index.
	for i, key := range ext.instUse {
		if slices.Index(ext.instUse, key) < i {
			continue // checked at its first occurrence
		}
		n := 1
		for _, later := range ext.instUse[i+1:] {
			if later == key {
				n++
			}
		}
		demand := float64(n+ss.chainInstanceUse(key)) * rate
		if res.instance(key.Node, key.VNF) < demand-network.CapacityEps {
			return false
		}
	}
	for _, u := range ext.edgeUse {
		demand := float64(u.count+ss.chainEdgeUse(u.edge)) * rate
		if res.edge[u.edge] < demand-network.CapacityEps {
			return false
		}
	}
	return true
}

// buildExtension assembles and prices an extension from its parts, carving
// the extension and everything it retains from m. interPaths run start→VNF
// node; innerPaths run VNF node→merger (nil for single-VNF layers).
func buildExtension(m *searchMem, p *Problem, spec LayerSpec, nodes []graph.NodeID, endNode graph.NodeID,
	interPaths, innerPaths []graph.Path) *extension {

	g := p.Net.G
	var localCost float64
	// VNF rents, read off the network's dense rows: +Inf is "not deployed".
	instUse := m.instUses.reserve(len(nodes) + 1)
	for i, node := range nodes {
		instUse = append(instUse, InstanceUseKey{node, spec.VNFs[i]})
	}
	if spec.Merger {
		instUse = append(instUse, InstanceUseKey{endNode, p.Net.Catalog.Merger()})
	}
	for _, key := range instUse {
		rent := p.Net.Rents(key.VNF)[key.Node]
		if rent == graph.Inf {
			m.instUses.abandon(instUse)
			return nil
		}
		localCost += rent * p.Size
	}
	// Inter-layer multicast pays each link at most once for this layer;
	// inner-layer paths pay every traversal. Sorting both edge multisets
	// and merging them yields the per-link reuse counts already ordered by
	// edge ID — the order the prices must be summed in, since float
	// addition in any input-dependent order would break run-to-run
	// reproducibility in the last ULP.
	inter := m.interEdges[:0]
	for _, path := range interPaths {
		inter = append(inter, path.Edges...)
	}
	slices.Sort(inter)
	inter = slices.Compact(inter)
	inner := m.innerEdges[:0]
	for _, path := range innerPaths {
		inner = append(inner, path.Edges...)
	}
	slices.Sort(inner)
	m.interEdges, m.innerEdges = inter, inner

	use := m.edgeUses.reserve(len(inter) + len(inner))
	for len(inter) > 0 || len(inner) > 0 {
		u := edgeUse{}
		if len(inner) == 0 || (len(inter) > 0 && inter[0] <= inner[0]) {
			u.edge, u.count = inter[0], 1
			inter = inter[1:]
		} else {
			u.edge = inner[0]
		}
		for len(inner) > 0 && inner[0] == u.edge {
			u.count++
			inner = inner[1:]
		}
		use = append(use, u)
	}
	for _, u := range use {
		localCost += g.Edge(u.edge).Price * float64(u.count) * p.Size
	}

	ext := m.exts.one()
	ext.endNode = endNode
	ext.nodes = nodes
	ext.interPaths = interPaths
	ext.innerPaths = innerPaths
	ext.localCost = localCost
	ext.instUse = m.instUses.commit(instUse)
	ext.edgeUse = m.edgeUses.commit(use)
	return ext
}

// assemble converts a layer-ω sub-solution chain plus a tail path into a
// Solution. The chain lives in the run's arena, which is recycled as soon as
// the run returns, so every slice the Solution keeps is copied out here —
// into one heap block per element kind, sized by a first walk of the chain:
// nothing reachable from a Result may alias arena memory.
func assemble(ss *subSolution, omega int, tail graph.Path) *Solution {
	nNodes, nPaths, nEdges := 0, 0, len(tail.Edges)
	for cur := ss; cur != nil; cur = cur.parent {
		if cur.ext == nil {
			continue
		}
		nNodes += len(cur.ext.nodes)
		for _, paths := range [2][]graph.Path{cur.ext.interPaths, cur.ext.innerPaths} {
			nPaths += len(paths)
			for _, p := range paths {
				nEdges += len(p.Edges)
			}
		}
	}
	c := solutionCopier{
		nodes: make([]graph.NodeID, 0, nNodes),
		paths: make([]graph.Path, 0, nPaths),
		edges: make([]graph.EdgeID, 0, nEdges),
	}
	s := &Solution{Layers: make([]LayerEmbedding, omega), TailPath: c.path(tail)}
	for cur := ss; cur != nil; cur = cur.parent {
		if cur.ext == nil {
			continue
		}
		ext := cur.ext
		le := LayerEmbedding{
			MergerNode: ext.endNode,
			InterPaths: c.pathList(ext.interPaths),
			InnerPaths: c.pathList(ext.innerPaths),
		}
		if len(ext.nodes) > 0 {
			c.nodes = append(c.nodes, ext.nodes...)
			le.Nodes = lastN(c.nodes, len(ext.nodes))
		}
		s.Layers[cur.layer-1] = le
	}
	return s
}

// solutionCopier hands out windows of assemble's three blocks. The blocks
// are sized exactly, so the appends never reallocate, and every window is
// capped to its length, so an append by the Solution's holder cannot reach
// a neighbouring window.
type solutionCopier struct {
	nodes []graph.NodeID
	paths []graph.Path
	edges []graph.EdgeID
}

// lastN returns the last n elements of s, capped to their length.
func lastN[T any](s []T, n int) []T { return s[len(s)-n : len(s) : len(s)] }

// path copies a path's edges, keeping a nil Edges nil and an empty one
// empty: the two encode differently (null vs []).
func (c *solutionCopier) path(p graph.Path) graph.Path {
	if p.Edges == nil {
		return p
	}
	c.edges = append(c.edges, p.Edges...)
	return graph.Path{From: p.From, Edges: lastN(c.edges, len(p.Edges))}
}

// pathList deep-copies a path list, nil staying nil.
func (c *solutionCopier) pathList(paths []graph.Path) []graph.Path {
	if paths == nil {
		return nil
	}
	for _, p := range paths {
		c.paths = append(c.paths, c.path(p))
	}
	return lastN(c.paths, len(paths))
}
