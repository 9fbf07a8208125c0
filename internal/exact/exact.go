// Package exact solves small DAG-SFC embedding instances to optimality
// (within the min-cost-path-per-meta-path model) by dynamic programming
// over (layer, end node) states. It stands in for the paper's integer
// program: the paper never reports IP solver results, but an exact
// reference lets the test suite and the gap experiment (E8 in DESIGN.md)
// measure how far BBE/MBBE are from optimal on instances where
// enumeration is tractable.
//
// Model notes, documented as substitutions in DESIGN.md:
//
//   - every meta-path is implemented by one min-cost path between its two
//     endpoints (all algorithms in this repository share that choice);
//     inter-layer multicast dedup is still applied when pricing a layer;
//   - capacities are assumed non-binding during the search (the paper's
//     evaluation uses ample capacities); the final solution is validated,
//     and a capacity violation is reported as infeasible rather than
//     silently mispriced.
package exact

import (
	"errors"
	"fmt"
	"sort"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// The size guard: Embed refuses a network past MaxNodes nodes or a layer
// wider than MaxWidth. Within it the exponential search stays sub-second.
const (
	MaxNodes = 60
	MaxWidth = 3
)

// ErrTooLarge is returned when the instance exceeds the size guard.
var ErrTooLarge = errors.New("exact: instance exceeds the solver's size guard")

// Embed solves the instance to optimality and returns the cheapest
// embedding, or core.ErrNoEmbedding if none exists.
func Embed(p *core.Problem) (*core.Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.Net.G.NumNodes() > MaxNodes {
		return nil, fmt.Errorf("%w: %d nodes > %d", ErrTooLarge, p.Net.G.NumNodes(), MaxNodes)
	}
	if p.SFC.MaxWidth() > MaxWidth {
		return nil, fmt.Errorf("%w: layer width %d > %d", ErrTooLarge, p.SFC.MaxWidth(), MaxWidth)
	}
	s := &solver{p: p, ledger: p.LedgerOrFresh(), sc: graph.GetScratch()}
	defer graph.PutScratch(s.sc)
	// The ledger is read-only for the whole solve: one residual row and one
	// compiled view serve every path.
	s.trees.Bind(p.Net.G, s.ledger.CostOptions(p.Rate), s.ledger.EdgeResiduals(nil))
	return s.run()
}

type solver struct {
	p      *core.Problem
	ledger *network.Ledger
	// trees holds the min-cost path tree rooted at each start a path has
	// left from, grown as far as the paths read off it; sc is its scratch.
	trees graph.TreeStore
	sc    *graph.Scratch
	// memo[state] is the cheapest completion cost from that state, with
	// the chosen layer embedding for reconstruction.
	memo map[state]*memoEntry
}

type state struct {
	layer int // next layer to embed (1-based); ω+1 means "go to dst"
	start graph.NodeID
}

type memoEntry struct {
	cost float64 // completion cost from this state (may be +Inf)
	le   *core.LayerEmbedding
	next graph.NodeID
}

func (s *solver) run() (*core.Result, error) {
	p := s.p
	s.memo = make(map[state]*memoEntry)

	best := s.solve(state{layer: 1, start: p.Src})
	if best.cost >= graph.Inf {
		return nil, core.ErrNoEmbedding
	}
	// Reconstruct.
	sol := &core.Solution{}
	cur := state{layer: 1, start: p.Src}
	for cur.layer <= p.SFC.Omega() {
		entry := s.memo[cur]
		sol.Layers = append(sol.Layers, *entry.le)
		cur = state{layer: cur.layer + 1, start: entry.next}
	}
	tail, ok := s.pathBetween(cur.start, p.Dst)
	if !ok {
		return nil, core.ErrNoEmbedding
	}
	sol.TailPath = tail

	cost, err := core.Price(p, sol)
	if err != nil {
		// Capacities bind; the DP's independence assumption fails.
		return nil, fmt.Errorf("%w: optimal assignment violates capacity: %v", core.ErrNoEmbedding, err)
	}
	return &core.Result{Solution: sol, Cost: cost}, nil
}

// solve returns the memoized cheapest completion from st.
func (s *solver) solve(st state) *memoEntry {
	if entry, ok := s.memo[st]; ok {
		return entry
	}
	entry := &memoEntry{cost: graph.Inf}
	s.memo[st] = entry
	p := s.p

	if st.layer > p.SFC.Omega() {
		if tail, ok := s.pathBetween(st.start, p.Dst); ok {
			entry.cost = tail.Cost(p.Net.G) * p.Size
		}
		return entry
	}

	spec := p.LayerSpecs()[st.layer-1]
	hostSets := make([][]graph.NodeID, len(spec.VNFs))
	for i, f := range spec.VNFs {
		hostSets[i] = s.feasibleHosts(f)
		if len(hostSets[i]) == 0 {
			return entry
		}
	}
	var mergerHosts []graph.NodeID
	if spec.Merger {
		mergerHosts = s.feasibleHosts(p.Net.Catalog.Merger())
		if len(mergerHosts) == 0 {
			return entry
		}
	}

	assignment := make([]graph.NodeID, len(spec.VNFs))
	var enumerate func(i int)
	enumerate = func(i int) {
		if i < len(spec.VNFs) {
			for _, v := range hostSets[i] {
				assignment[i] = v
				enumerate(i + 1)
			}
			return
		}
		ends := mergerHosts
		if !spec.Merger {
			ends = assignment[:1]
		}
		for _, end := range ends {
			le, layerCost, ok := s.embedLayer(spec, st.start, assignment, end)
			if !ok {
				continue
			}
			rest := s.solve(state{layer: st.layer + 1, start: end})
			total := layerCost + rest.cost
			if total < entry.cost {
				leCopy := le
				entry.cost = total
				entry.le = &leCopy
				entry.next = end
			}
		}
	}
	enumerate(0)
	return entry
}

// feasibleHosts lists nodes hosting f with residual capacity for at least
// one use at the flow rate, ascending.
func (s *solver) feasibleHosts(f network.VNFID) []graph.NodeID {
	var out []graph.NodeID
	for v, rent := range s.p.Net.Rents(f) {
		if rent < graph.Inf && s.ledger.InstanceResidual(graph.NodeID(v), f) >= s.p.Rate {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// embedLayer prices one concrete layer embedding: VNF rents plus link cost
// with inter-layer multicast dedup and inner-layer unicast counting.
func (s *solver) embedLayer(spec core.LayerSpec, start graph.NodeID,
	assignment []graph.NodeID, end graph.NodeID) (core.LayerEmbedding, float64, bool) {

	p := s.p
	le := core.LayerEmbedding{
		Nodes:      append([]graph.NodeID(nil), assignment...),
		MergerNode: end,
	}
	cost := 0.0
	for i, v := range assignment {
		inst, ok := p.Net.Instance(v, spec.VNFs[i])
		if !ok {
			return le, 0, false
		}
		cost += inst.Price * p.Size
	}
	if spec.Merger {
		inst, ok := p.Net.Instance(end, p.Net.Catalog.Merger())
		if !ok {
			return le, 0, false
		}
		cost += inst.Price * p.Size
	}
	interUnion := make(map[graph.EdgeID]bool)
	for _, v := range assignment {
		path, ok := s.pathBetween(start, v)
		if !ok {
			return le, 0, false
		}
		le.InterPaths = append(le.InterPaths, path)
		for _, e := range path.Edges {
			interUnion[e] = true
		}
	}
	// Sum in ascending edge order for bit-for-bit reproducibility.
	interIDs := make([]graph.EdgeID, 0, len(interUnion))
	for e := range interUnion {
		interIDs = append(interIDs, e)
	}
	sort.Slice(interIDs, func(i, j int) bool { return interIDs[i] < interIDs[j] })
	for _, e := range interIDs {
		cost += p.Net.G.Edge(e).Price * p.Size
	}
	if spec.Merger {
		for _, v := range assignment {
			path, ok := s.pathBetween(v, end)
			if !ok {
				return le, 0, false
			}
			le.InnerPaths = append(le.InnerPaths, path)
			cost += path.Cost(p.Net.G) * p.Size
		}
	}
	return le, cost, true
}

// pathBetween returns a min-cost path off the tree rooted at a.
func (s *solver) pathBetween(a, b graph.NodeID) (graph.Path, bool) {
	if a == b {
		return graph.EmptyPath(a), true
	}
	t, _, _ := s.trees.Tree(a)
	tree, _ := t.To(s.sc, b)
	return tree.PathTo(b)
}
