package core

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// InstanceUseKey identifies a rented VNF instance f_v(i).
type InstanceUseKey struct {
	Node graph.NodeID
	VNF  network.VNFID
}

// InstanceCount is one rented instance with its reuse count α_{v,i} (eq. 7).
type InstanceCount struct {
	InstanceUseKey
	Count int
}

// EdgeCount is one used link with its reuse count α_{g,h} (eqs. 8–10).
type EdgeCount struct {
	Edge  graph.EdgeID
	Count int
}

// Usage is a placement's resource demand in reuse counts. It is a pure
// function of (network, SFC, solution) — the ledger plays no part — so one
// evaluation serves every consumer: the capacity check of eqs. (2)–(3),
// the reservation and the release all multiply the same counts by the
// flow rate.
type Usage struct {
	// Instances holds each rented instance once, ascending by (node, VNF).
	Instances []InstanceCount
	// Edges holds each used link once, ascending by edge ID, with the
	// inter-layer multicast dedup of eq. (9) already applied.
	Edges []EdgeCount
}

// clone copies the usage to the heap, so it can outlive the scratch it was
// tallied in. An empty list clones to nil whether that scratch was fresh
// (nil) or warm (empty): equal placements must compare equal.
func (u Usage) clone() Usage {
	return Usage{
		Instances: append([]InstanceCount(nil), u.Instances...),
		Edges:     append([]EdgeCount(nil), u.Edges...),
	}
}

// Cost is the evaluated objective of eq. (1).
type Cost struct {
	VNFCost  float64
	LinkCost float64
}

// Total is the objective value: VNF rental cost plus link cost.
func (c Cost) Total() float64 { return c.VNFCost + c.LinkCost }

// CostBreakdown is the evaluated objective together with the reuse counts
// that produced it.
type CostBreakdown struct {
	Cost
	Usage Usage
}

// costScratch holds the buffers one pricing pass tallies into.
type costScratch struct {
	edges []graph.EdgeID
	usage Usage
}

var costScratchPool = sync.Pool{New: func() any { return new(costScratch) }}

// ComputeCost evaluates a solution's objective against the problem. It
// assumes a structurally valid solution (see Validate); it returns an error
// only when an assignment references a VNF instance that does not exist,
// since pricing such a solution is meaningless.
func ComputeCost(p *Problem, s *Solution) (CostBreakdown, error) {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.price(p, s)
	cb.Usage = cb.Usage.clone()
	return cb, err
}

// price is ComputeCost into the scratch: the returned breakdown's Usage
// aliases sc and is valid only until sc is reused. On error the breakdown
// holds the costs summed so far and no usage.
//
// Link prices are summed per layer — inter-layer group, then inner-layer
// group, then the tail — each group in ascending edge order: float
// addition is not associative, so any input-dependent order would make the
// total differ in the last ULP between runs, breaking bit-for-bit
// reproducibility of the experiments.
func (sc *costScratch) price(p *Problem, s *Solution) (CostBreakdown, error) {
	var cb CostBreakdown
	sc.usage.Instances, sc.usage.Edges = sc.usage.Instances[:0], sc.usage.Edges[:0]
	merger := p.Net.Catalog.Merger()
	for li := range s.Layers {
		le := &s.Layers[li]
		spec := p.SFC.Layers[li]
		for i, node := range le.Nodes {
			if err := sc.rent(p, &cb, node, spec.VNFs[i]); err != nil {
				return cb, err
			}
		}
		if spec.Parallel() {
			if err := sc.rent(p, &cb, le.MergerNode, merger); err != nil {
				return cb, err
			}
		}
		// Inter-layer meta-paths (P1): multicast — within this layer each
		// link is paid at most once (eq. 9).
		sc.useEdges(p, &cb, le.InterPaths, true)
		// Inner-layer meta-paths (P2): every traversal is paid (eq. 10).
		sc.useEdges(p, &cb, le.InnerPaths, false)
	}
	// Tail path: the inter-layer meta-path of the stretched layer L_{ω+1};
	// a single path, so multicast dedup degenerates to per-link counting
	// within the path.
	tail := [1]graph.Path{s.TailPath}
	sc.useEdges(p, &cb, tail[:], true)

	sc.usage.Instances = mergeInstances(sc.usage.Instances)
	sc.usage.Edges = mergeEdges(sc.usage.Edges)
	cb.Usage = sc.usage
	return cb, nil
}

func (sc *costScratch) rent(p *Problem, cb *CostBreakdown, node graph.NodeID, vnf network.VNFID) error {
	inst, ok := p.Net.Instance(node, vnf)
	if !ok {
		return fmt.Errorf("core: no instance of f(%d) on node %d", vnf, node)
	}
	sc.usage.Instances = append(sc.usage.Instances, InstanceCount{InstanceUseKey{node, vnf}, 1})
	cb.VNFCost += inst.Price * p.Size
	return nil
}

// useEdges prices one group of paths, ascending by edge ID, and appends
// its per-link counts to the usage: one per link for a multicast group,
// one per traversal otherwise.
func (sc *costScratch) useEdges(p *Problem, cb *CostBreakdown, paths []graph.Path, multicast bool) {
	edges := sc.edges[:0]
	for _, path := range paths {
		edges = append(edges, path.Edges...)
	}
	slices.Sort(edges)
	sc.edges = edges
	for i := 0; i < len(edges); {
		k := i + 1
		for k < len(edges) && edges[k] == edges[i] {
			k++
		}
		count := k - i
		if multicast {
			count = 1
		}
		sc.usage.Edges = append(sc.usage.Edges, EdgeCount{edges[i], count})
		cb.LinkCost += p.Net.G.Edge(edges[i]).Price * float64(count) * p.Size
		i = k
	}
}

// mergeInstances sorts the per-position rents by (node, VNF) and folds
// repeats into one entry carrying their sum, in place.
func mergeInstances(xs []InstanceCount) []InstanceCount {
	slices.SortFunc(xs, func(a, b InstanceCount) int { return cmp.Or(cmp.Compare(a.Node, b.Node), cmp.Compare(a.VNF, b.VNF)) })
	out := xs[:0]
	for _, x := range xs {
		if n := len(out); n > 0 && out[n-1].InstanceUseKey == x.InstanceUseKey {
			out[n-1].Count += x.Count
			continue
		}
		out = append(out, x)
	}
	return out
}

// mergeEdges sorts the per-group link counts by edge ID and folds repeats
// into one entry carrying their sum, in place.
func mergeEdges(xs []EdgeCount) []EdgeCount {
	slices.SortFunc(xs, func(a, b EdgeCount) int { return cmp.Compare(a.Edge, b.Edge) })
	out := xs[:0]
	for _, x := range xs {
		if n := len(out); n > 0 && out[n-1].Edge == x.Edge {
			out[n-1].Count += x.Count
			continue
		}
		out = append(out, x)
	}
	return out
}
