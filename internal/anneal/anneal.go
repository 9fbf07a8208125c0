// Package anneal embeds DAG-SFCs by simulated annealing over VNF
// placements: start from the MINV greedy solution, propose relocations of
// single DAG positions (re-instantiating the affected meta-paths with
// min-cost paths), and accept by the Metropolis rule under a geometric
// cooling schedule. It is a metaheuristic reference point between the
// paper's constructive heuristics (BBE/MBBE) and the exact solvers:
// slower than MBBE, placement-global where MBBE is layer-local.
package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// Options tunes the annealing schedule.
type Options struct {
	// Iterations is the number of proposed moves. 0 means
	// DefaultIterations.
	Iterations int
	// InitTemp is the starting temperature, in cost units. 0 derives it
	// from the initial solution (5% of its cost).
	InitTemp float64
	// Cooling is the per-iteration geometric factor; 0 means one that
	// reaches ~1% of InitTemp by the final iteration.
	Cooling float64
}

// DefaultIterations bounds the default schedule.
const DefaultIterations = 2000

// Embed anneals the problem and returns the best feasible solution found.
func Embed(p *core.Problem, rng *rand.Rand, opts Options) (res *core.Result, err error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = DefaultIterations
	}

	// Telemetry: the annealer's unit of work is a proposal evaluation
	// ("search nodes"). The MINV warm start records its own sample under
	// alg="minv".
	begin := time.Now()
	var evaluations int
	defer func() {
		telemetry.RecordEmbed(telemetry.EmbedSample{
			Alg:         "sa",
			Elapsed:     time.Since(begin),
			Failed:      err != nil,
			SearchNodes: evaluations,
		})
	}()

	// Initial state: the greedy baseline.
	init, err := baseline.EmbedMINV(p)
	if err != nil {
		return nil, err
	}
	s := newState(p)
	cur, err := s.fromSolution(init.Solution)
	if err != nil {
		return nil, err
	}
	curCost := init.Cost.Total()
	bestAssign := cur.clone()
	bestCost := curCost

	temp := opts.InitTemp
	if temp == 0 {
		temp = 0.05 * curCost
	}
	cooling := opts.Cooling
	if cooling == 0 && iters > 0 {
		cooling = math.Pow(0.01, 1/float64(iters))
	}

	for i := 0; i < iters; i++ {
		proposal, ok := s.mutate(cur, rng)
		if !ok {
			temp *= cooling
			continue
		}
		evaluations++
		cost, feasible := s.evaluate(proposal)
		if feasible && (cost < curCost || rng.Float64() < math.Exp((curCost-cost)/math.Max(temp, 1e-12))) {
			cur = proposal
			curCost = cost
			if cost < bestCost {
				bestCost = cost
				bestAssign = proposal.clone()
			}
		}
		temp *= cooling
	}

	sol, ok := s.build(bestAssign)
	if !ok {
		return nil, fmt.Errorf("%w: annealer lost its feasible incumbent", core.ErrNoEmbedding)
	}
	if err := core.Validate(p, sol); err != nil {
		return nil, fmt.Errorf("anneal: incumbent invalid: %w", err)
	}
	cb, err := core.ComputeCost(p, sol)
	if err != nil {
		return nil, err
	}
	return &core.Result{Solution: sol, Cost: cb}, nil
}

// assignment is the annealer's state: one host per DAG position, in the
// position order of core's LayerSpecs (layer VNFs, then the merger).
type assignment []graph.NodeID

func (a assignment) clone() assignment { return append(assignment(nil), a...) }

// state holds the immutable problem context and caches.
type state struct {
	p      *core.Problem
	ledger *network.Ledger
	specs  []core.LayerSpec
	// posVNF and posLayer flatten the positions.
	posVNF   []network.VNFID
	posLayer []int
	// hosts[i] lists feasible hosts of position i.
	hosts [][]graph.NodeID
	trees map[graph.NodeID]*graph.ShortestTree
}

func newState(p *core.Problem) *state {
	ledger := p.Ledger
	if ledger == nil {
		ledger = network.NewLedger(p.Net)
		p.Ledger = ledger
	}
	s := &state{p: p, ledger: ledger, specs: p.LayerSpecs(),
		trees: make(map[graph.NodeID]*graph.ShortestTree)}
	merger := p.Net.Catalog.Merger()
	for _, spec := range s.specs {
		for _, f := range spec.VNFs {
			s.addPosition(spec.Index, f)
		}
		if spec.Merger {
			s.addPosition(spec.Index, merger)
		}
	}
	return s
}

func (s *state) addPosition(layer int, f network.VNFID) {
	s.posVNF = append(s.posVNF, f)
	s.posLayer = append(s.posLayer, layer)
	var hosts []graph.NodeID
	for _, v := range s.p.Net.NodesWith(f) {
		if s.ledger.InstanceResidual(v, f) >= s.p.Rate {
			hosts = append(hosts, v)
		}
	}
	s.hosts = append(s.hosts, hosts)
}

// fromSolution extracts the assignment vector of an existing solution.
func (s *state) fromSolution(sol *core.Solution) (assignment, error) {
	var a assignment
	for li, le := range sol.Layers {
		a = append(a, le.Nodes...)
		if s.specs[li].Merger {
			a = append(a, le.MergerNode)
		}
	}
	if len(a) != len(s.posVNF) {
		return nil, fmt.Errorf("anneal: solution has %d positions, want %d", len(a), len(s.posVNF))
	}
	return a, nil
}

// mutate proposes a single-position relocation.
func (s *state) mutate(cur assignment, rng *rand.Rand) (assignment, bool) {
	if len(cur) == 0 {
		return nil, false
	}
	pos := rng.Intn(len(cur))
	alts := s.hosts[pos]
	if len(alts) < 2 {
		return nil, false
	}
	next := cur.clone()
	for tries := 0; tries < 4; tries++ {
		v := alts[rng.Intn(len(alts))]
		if v != cur[pos] {
			next[pos] = v
			return next, true
		}
	}
	return nil, false
}

// evaluate prices an assignment, returning feasible=false when some
// meta-path cannot be routed or a capacity constraint breaks.
func (s *state) evaluate(a assignment) (float64, bool) {
	sol, ok := s.build(a)
	if !ok {
		return 0, false
	}
	if err := core.Validate(s.p, sol); err != nil {
		return 0, false
	}
	cb, err := core.ComputeCost(s.p, sol)
	if err != nil {
		return 0, false
	}
	return cb.Total(), true
}

// build materializes an assignment into a solution with min-cost paths
// per meta-path (the same instantiation rule the baselines use).
func (s *state) build(a assignment) (*core.Solution, bool) {
	sol := &core.Solution{}
	prevEnd := s.p.Src
	idx := 0
	for _, spec := range s.specs {
		le := core.LayerEmbedding{}
		width := len(spec.VNFs)
		le.Nodes = append(le.Nodes, a[idx:idx+width]...)
		if spec.Merger {
			le.MergerNode = a[idx+width]
			idx += width + 1
		} else {
			le.MergerNode = le.Nodes[0]
			idx += width
		}
		for _, v := range le.Nodes {
			path, ok := s.pathBetween(prevEnd, v)
			if !ok {
				return nil, false
			}
			le.InterPaths = append(le.InterPaths, path)
		}
		if spec.Merger {
			for _, v := range le.Nodes {
				path, ok := s.pathBetween(v, le.MergerNode)
				if !ok {
					return nil, false
				}
				le.InnerPaths = append(le.InnerPaths, path)
			}
		}
		sol.Layers = append(sol.Layers, le)
		prevEnd = le.EndNode()
	}
	tail, ok := s.pathBetween(prevEnd, s.p.Dst)
	if !ok {
		return nil, false
	}
	sol.TailPath = tail
	return sol, true
}

func (s *state) pathBetween(a, b graph.NodeID) (graph.Path, bool) {
	if a == b {
		return graph.EmptyPath(a), true
	}
	tree, ok := s.trees[a]
	if !ok {
		tree = s.p.Net.G.Dijkstra(a, s.ledger.CostOptions(s.p.Rate))
		s.trees[a] = tree
	}
	return tree.PathTo(b)
}
