// Package baseline implements the two benchmark algorithms the paper
// evaluates against (§5.1):
//
//   - RANV: assigns every VNF required by the SFC to a random node with
//     enough traffic processing capability, then implements the meta-paths
//     with min-cost (Dijkstra) paths;
//   - MINV: assigns every VNF to the cheapest node with enough capacity,
//     then implements the meta-paths the same way.
//
// Both reuse the core package's solution representation, cost engine and
// validator, so comparisons against BBE/MBBE are apples-to-apples.
package baseline

import (
	"fmt"
	"math/rand"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// EmbedRANV embeds the problem's DAG-SFC with the randomized benchmark.
// As in the paper, a draw that turns out infeasible is a failure (the
// benchmarks "do not always result in a solution"); it is reported as
// core.ErrNoEmbedding.
func EmbedRANV(p *core.Problem, rng *rand.Rand) (*core.Result, error) {
	return embedWithPicker(p, "ranv", func(cands []network.Instance, _ network.VNFID) network.Instance {
		return cands[rng.Intn(len(cands))]
	})
}

// EmbedMINV embeds the problem's DAG-SFC with the naive greedy benchmark:
// cheapest feasible instance per position (ties broken by lowest node ID:
// the candidates come ascending by node).
func EmbedMINV(p *core.Problem) (*core.Result, error) {
	return embedWithPicker(p, "minv", func(cands []network.Instance, _ network.VNFID) network.Instance {
		best := cands[0]
		for _, c := range cands[1:] {
			if c.Price < best.Price {
				best = c
			}
		}
		return best
	})
}

// embedWithPicker runs the shared benchmark skeleton: pick a host per DAG
// position with the given policy, then connect all meta-paths with
// min-cost paths on the real-time network.
func embedWithPicker(p *core.Problem, label string, pick func([]network.Instance, network.VNFID) network.Instance) (res *core.Result, err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ledger := p.LedgerOrFresh()

	// Telemetry: the benchmarks have no search trees, so "search nodes"
	// counts candidate instances examined. Shared metric names with
	// BBE/MBBE keep the /metrics view comparable.
	begin := time.Now()
	var instancesExamined int
	defer func() {
		telemetry.RecordEmbed(telemetry.EmbedSample{
			Alg:         label,
			Elapsed:     time.Since(begin),
			Failed:      err != nil,
			SearchNodes: instancesExamined,
		})
	}()

	// uses tracks how many times this embedding has already committed each
	// instance, so capacity filtering accounts for intra-SFC reuse.
	uses := make(map[core.InstanceUseKey]int)
	feasible := func(inst network.Instance) bool {
		already := float64(uses[core.InstanceUseKey{Node: inst.Node, VNF: inst.VNF}]) * p.Rate
		return ledger.InstanceResidual(inst.Node, inst.VNF)-already >= p.Rate
	}
	choose := func(f network.VNFID) (graph.NodeID, error) {
		var cands []network.Instance
		for v, rent := range p.Net.Rents(f) {
			if rent == graph.Inf {
				continue
			}
			instancesExamined++
			if inst, _ := p.Net.Instance(graph.NodeID(v), f); feasible(inst) {
				cands = append(cands, inst)
			}
		}
		if len(cands) == 0 {
			return graph.None, fmt.Errorf("%w: no feasible instance of f(%d)", core.ErrNoEmbedding, f)
		}
		inst := pick(cands, f)
		uses[core.InstanceUseKey{Node: inst.Node, VNF: inst.VNF}]++
		return inst.Node, nil
	}

	// Every meta-path is read off a min-cost tree rooted at its start, on a
	// view of the real-time network compiled once: the ledger is read-only
	// for the whole embed, so one residual row serves it, and the store
	// keeps each tree for the next path from the same start.
	var trees graph.TreeStore
	trees.Bind(p.Net.G, ledger.CostOptions(p.Rate), ledger.EdgeResiduals(nil))
	sc := graph.GetScratch()
	defer graph.PutScratch(sc)
	minPath := func(a, b graph.NodeID) (graph.Path, error) {
		if a == b {
			return graph.EmptyPath(a), nil
		}
		t, _, _ := trees.Tree(a)
		tree, _ := t.To(sc, b)
		path, ok := tree.PathTo(b)
		if !ok {
			return graph.Path{}, fmt.Errorf("%w: no path %d->%d", core.ErrNoEmbedding, a, b)
		}
		return path, nil
	}

	sol := &core.Solution{}
	prevEnd := p.Src
	merger := p.Net.Catalog.Merger()
	for _, spec := range p.LayerSpecs() {
		le := core.LayerEmbedding{}
		for _, f := range spec.VNFs {
			node, err := choose(f)
			if err != nil {
				return nil, err
			}
			le.Nodes = append(le.Nodes, node)
		}
		if spec.Merger {
			node, err := choose(merger)
			if err != nil {
				return nil, err
			}
			le.MergerNode = node
		} else {
			le.MergerNode = le.Nodes[0]
		}
		for _, node := range le.Nodes {
			path, err := minPath(prevEnd, node)
			if err != nil {
				return nil, err
			}
			le.InterPaths = append(le.InterPaths, path)
		}
		if spec.Merger {
			for _, node := range le.Nodes {
				path, err := minPath(node, le.MergerNode)
				if err != nil {
					return nil, err
				}
				le.InnerPaths = append(le.InnerPaths, path)
			}
		}
		sol.Layers = append(sol.Layers, le)
		prevEnd = le.EndNode()
	}
	tail, err := minPath(prevEnd, p.Dst)
	if err != nil {
		return nil, err
	}
	sol.TailPath = tail

	cost, err := core.Price(p, sol)
	if err != nil {
		// The draw was structurally fine but violates a capacity
		// constraint in aggregate (e.g. one link reused beyond its
		// bandwidth). The benchmark does not backtrack.
		return nil, fmt.Errorf("%w: %v", core.ErrNoEmbedding, err)
	}
	return &core.Result{Solution: sol, Cost: cost}, nil
}
