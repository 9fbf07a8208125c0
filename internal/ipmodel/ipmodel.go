// Package ipmodel encodes the optimal DAG-SFC embedding problem as the
// 0-1 integer program of the paper's §3.3 and solves it exactly by LP-based
// branch and bound (bb.go, over internal/lp). The encoding follows the
// paper's variables closely:
//
//   - x_{π,v}: position π of the stretched SFC (every layer VNF plus each
//     parallel layer's merger) is assigned to node v — eq. (4) becomes
//     Σ_v x_{π,v} = 1;
//   - y_{m,a,b,ρ}: meta-path m is implemented by candidate real-path ρ
//     between nodes a and b (candidates are the k cheapest loopless paths,
//     Yen's algorithm) — eqs. (5)/(6) become endpoint-coupling equalities
//     Σ_{b,ρ} y_{m,a,·} = x_{tail(m),a} and Σ_{a,ρ} y_{m,·,b} = x_{head(m),b};
//   - z_{l,e}: link e carries layer l's inter-layer multicast — the
//     min{·,1} of eq. (9) linearizes to z_{l,e} ≥ y for every inter-layer
//     path of layer l that uses e, with z paying c_e once.
//
// Inner-layer paths pay per traversal (eq. 10) directly through their y
// variables. Instance and link capacities (eqs. 2–3) are linear in x, y
// and z. The encoding is exact up to the candidate path set: with k large
// enough to contain an optimal real-path per meta-path, the IP optimum is
// the true optimum; internal/exact's DP (one min-cost path per meta-path)
// is always within the candidate set, so the IP is never worse.
package ipmodel

import (
	"errors"
	"fmt"
	"sort"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/lp"
	"dagsfc/internal/network"
)

// Options tunes the encoding.
type Options struct {
	// PathsPerPair is k: how many cheapest loopless candidate real-paths
	// to enumerate per (meta-path, node pair). 0 means 2.
	PathsPerPair int
	// MaxCandidatesPerPosition truncates each position's candidate node
	// set to the cheapest this-many instances. 0 means all (exact).
	MaxCandidatesPerPosition int
	// MaxVariables refuses encodings larger than this (the dense simplex
	// underneath does not scale); 0 means DefaultMaxVariables.
	MaxVariables int
}

// DefaultMaxVariables caps the encoded program's size.
const DefaultMaxVariables = 4000

// ErrTooLarge is returned when the encoding would exceed MaxVariables.
var ErrTooLarge = errors.New("ipmodel: encoding exceeds the variable budget")

// position is one slot of the stretched SFC that must be assigned a node.
type position struct {
	layer int // 1-based
	gamma int // index within the layer's VNF set; -1 for the merger
	vnf   network.VNFID
}

// metaPath is one logical edge of the DAG-SFC.
type metaPath struct {
	layer int // owning layer for multicast grouping (tail uses ω+1)
	inter bool
	// tailPos/headPos index into positions; -1 means a fixed node.
	tailPos, headPos     int
	tailFixed, headFixed graph.NodeID
}

// yEntry records one path variable.
type yEntry struct {
	meta int
	a, b graph.NodeID
	path graph.Path
	col  int
}

type zKey struct {
	layer int
	edge  graph.EdgeID
}

// Encoding is the assembled integer program plus the bookkeeping needed
// to decode a solution vector back into a core.Solution.
type Encoding struct {
	prog program

	p         *core.Problem
	positions []position
	// cands[i] lists position i's candidate nodes.
	cands [][]graph.NodeID
	// xCol[i][j] is the column of x_{position i, cands[i][j]}.
	xCol  [][]int
	metas []metaPath
	ys    []yEntry
	zCol  map[zKey]int
}

// Encode builds the integer program for the problem.
func Encode(p *core.Problem, opts Options) (*Encoding, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	k := opts.PathsPerPair
	if k <= 0 {
		k = 2
	}
	maxVars := opts.MaxVariables
	if maxVars == 0 {
		maxVars = DefaultMaxVariables
	}
	enc := &Encoding{p: p, zCol: make(map[zKey]int)}
	ledger := ledgerOf(p)

	// Positions and candidates.
	merger := p.Net.Catalog.Merger()
	for _, spec := range p.LayerSpecs() {
		for gi, f := range spec.VNFs {
			enc.positions = append(enc.positions, position{layer: spec.Index, gamma: gi, vnf: f})
		}
		if spec.Merger {
			enc.positions = append(enc.positions, position{layer: spec.Index, gamma: -1, vnf: merger})
		}
	}
	for _, pos := range enc.positions {
		var cands []graph.NodeID
		for _, v := range p.Net.NodesWith(pos.vnf) {
			if ledger.InstanceResidual(v, pos.vnf) >= p.Rate {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: no feasible instance of f(%d)", core.ErrNoEmbedding, pos.vnf)
		}
		pos := pos
		sort.Slice(cands, func(i, j int) bool {
			ia, _ := p.Net.Instance(cands[i], pos.vnf)
			ib, _ := p.Net.Instance(cands[j], pos.vnf)
			if ia.Price != ib.Price {
				return ia.Price < ib.Price
			}
			return cands[i] < cands[j]
		})
		if opts.MaxCandidatesPerPosition > 0 && len(cands) > opts.MaxCandidatesPerPosition {
			cands = cands[:opts.MaxCandidatesPerPosition]
		}
		enc.cands = append(enc.cands, cands)
	}

	// Meta-paths: inter-layer per layer VNF, inner-layer per parallel
	// VNF, and the tail (treated as the inter-layer meta-path of the
	// stretched layer ω+1, exactly as the model does with f(0)).
	endPos := -1 // previous layer's end position; -1 = fixed source
	posIdx := 0
	for _, spec := range p.LayerSpecs() {
		layerStart := posIdx
		width := len(spec.VNFs)
		var mergerPos int
		if spec.Merger {
			mergerPos = layerStart + width
		}
		for gi := range spec.VNFs {
			m := metaPath{layer: spec.Index, inter: true, headPos: layerStart + gi, tailPos: endPos}
			if endPos == -1 {
				m.tailFixed = p.Src
			}
			enc.metas = append(enc.metas, m)
		}
		if spec.Merger {
			for gi := range spec.VNFs {
				enc.metas = append(enc.metas, metaPath{
					layer: spec.Index, inter: false,
					tailPos: layerStart + gi, headPos: mergerPos,
				})
			}
			endPos = mergerPos
			posIdx = mergerPos + 1
		} else {
			endPos = layerStart
			posIdx = layerStart + width
		}
	}
	tail := metaPath{layer: p.SFC.Omega() + 1, inter: true, tailPos: endPos, headPos: -1, headFixed: p.Dst}
	if endPos == -1 {
		tail.tailFixed = p.Src
	}
	enc.metas = append(enc.metas, tail)

	if err := enc.assemble(k, maxVars, ledger); err != nil {
		return nil, err
	}
	return enc, nil
}

// candidatesOf returns the candidate nodes of a meta-path endpoint.
func (enc *Encoding) candidatesOf(posIdx int, fixed graph.NodeID) []graph.NodeID {
	if posIdx == -1 {
		return []graph.NodeID{fixed}
	}
	return enc.cands[posIdx]
}

// assemble creates variables, objective and constraints.
func (enc *Encoding) assemble(k, maxVars int, ledger *network.Ledger) error {
	p := enc.p
	g := p.Net.G
	var obj []float64
	col := 0
	newVar := func(cost float64) int {
		obj = append(obj, cost)
		col++
		return col - 1
	}

	// x variables.
	enc.xCol = make([][]int, len(enc.positions))
	for i, pos := range enc.positions {
		enc.xCol[i] = make([]int, len(enc.cands[i]))
		for j, v := range enc.cands[i] {
			inst, _ := p.Net.Instance(v, pos.vnf)
			enc.xCol[i][j] = newVar(inst.Price * p.Size)
		}
	}

	// y variables (and z on demand).
	pathOpts := ledger.CostOptions(p.Rate)
	pathCache := make(map[[2]graph.NodeID][]graph.Path)
	pathsBetween := func(a, b graph.NodeID) []graph.Path {
		key := [2]graph.NodeID{a, b}
		if ps, ok := pathCache[key]; ok {
			return ps
		}
		rev := [2]graph.NodeID{b, a}
		var ps []graph.Path
		if cached, ok := pathCache[rev]; ok {
			for _, q := range cached {
				ps = append(ps, q.Reverse(g))
			}
		} else {
			ps = kShortestPaths(g, a, b, k, pathOpts)
		}
		pathCache[key] = ps
		return ps
	}
	for mi, m := range enc.metas {
		tails := enc.candidatesOf(m.tailPos, m.tailFixed)
		heads := enc.candidatesOf(m.headPos, m.headFixed)
		for _, a := range tails {
			for _, b := range heads {
				for _, path := range pathsBetween(a, b) {
					cost := 0.0
					if !m.inter {
						cost = path.Cost(g) * p.Size // eq. (10): pay per traversal
					}
					y := yEntry{meta: mi, a: a, b: b, path: path, col: newVar(cost)}
					enc.ys = append(enc.ys, y)
					if m.inter {
						for _, e := range path.Edges {
							key := zKey{m.layer, e}
							if _, ok := enc.zCol[key]; !ok {
								enc.zCol[key] = newVar(g.Edge(e).Price * p.Size) // eq. (9): pay once per layer
							}
						}
					}
				}
			}
		}
		if col > maxVars {
			return fmt.Errorf("%w: %d variables after meta-path %d (budget %d)", ErrTooLarge, col, mi, maxVars)
		}
	}
	n := col
	if n > maxVars {
		return fmt.Errorf("%w: %d variables (budget %d)", ErrTooLarge, n, maxVars)
	}

	prob := program{numVars: n, objective: obj, binary: make([]bool, n)}
	for j := range prob.binary {
		prob.binary[j] = true
	}
	addRow := func(coeffs map[int]float64, sense lp.Sense, rhs float64) {
		maxIdx := -1
		for j := range coeffs {
			if j > maxIdx {
				maxIdx = j
			}
		}
		row := make([]float64, maxIdx+1)
		for j, v := range coeffs {
			row[j] = v
		}
		prob.constraints = append(prob.constraints, lp.Constraint{Coeffs: row, Sense: sense, RHS: rhs})
	}

	// (4): each position assigned exactly once.
	for i := range enc.positions {
		row := map[int]float64{}
		for _, c := range enc.xCol[i] {
			row[c] = 1
		}
		addRow(row, lp.EQ, 1)
	}

	// (5)/(6): endpoint coupling. For each meta-path and each candidate
	// endpoint node, the paths touching that node sum to its assignment
	// indicator (or to 1 for fixed endpoints).
	for mi, m := range enc.metas {
		byTail := map[graph.NodeID]map[int]float64{}
		byHead := map[graph.NodeID]map[int]float64{}
		for _, y := range enc.ys {
			if y.meta != mi {
				continue
			}
			if byTail[y.a] == nil {
				byTail[y.a] = map[int]float64{}
			}
			byTail[y.a][y.col] = 1
			if byHead[y.b] == nil {
				byHead[y.b] = map[int]float64{}
			}
			byHead[y.b][y.col] = 1
		}
		couple := func(posIdx int, fixed graph.NodeID, byNode map[graph.NodeID]map[int]float64) {
			for ci, v := range enc.candidatesOf(posIdx, fixed) {
				row := byNode[v]
				if row == nil {
					row = map[int]float64{}
				}
				rowCopy := map[int]float64{}
				for c, coef := range row {
					rowCopy[c] = coef
				}
				if posIdx == -1 {
					addRow(rowCopy, lp.EQ, 1)
				} else {
					rowCopy[enc.xCol[posIdx][ci]] = -1
					addRow(rowCopy, lp.EQ, 0)
				}
			}
		}
		couple(m.tailPos, m.tailFixed, byTail)
		couple(m.headPos, m.headFixed, byHead)
	}

	// z indicators: z_{l,e} >= y for every inter-layer path using e.
	for _, y := range enc.ys {
		m := enc.metas[y.meta]
		if !m.inter {
			continue
		}
		for _, e := range y.path.Edges {
			z := enc.zCol[zKey{m.layer, e}]
			addRow(map[int]float64{y.col: 1, z: -1}, lp.LE, 0)
		}
	}

	// (2): instance capacity. Positions sharing (node, category) sum.
	instRows := map[core.InstanceUseKey]map[int]float64{}
	for i, pos := range enc.positions {
		for j, v := range enc.cands[i] {
			key := core.InstanceUseKey{Node: v, VNF: pos.vnf}
			if instRows[key] == nil {
				instRows[key] = map[int]float64{}
			}
			instRows[key][enc.xCol[i][j]] = p.Rate
		}
	}
	// Emit capacity rows in sorted key order: constraint order influences
	// simplex pivoting, and map iteration would break reproducibility.
	instKeys := make([]core.InstanceUseKey, 0, len(instRows))
	for key := range instRows {
		instKeys = append(instKeys, key)
	}
	sort.Slice(instKeys, func(i, j int) bool {
		if instKeys[i].Node != instKeys[j].Node {
			return instKeys[i].Node < instKeys[j].Node
		}
		return instKeys[i].VNF < instKeys[j].VNF
	})
	for _, key := range instKeys {
		addRow(instRows[key], lp.LE, ledger.InstanceResidual(key.Node, key.VNF))
	}

	// (3): link capacity. rate·(Σ_l z_{l,e} + Σ inner y using e) ≤ residual.
	linkRows := map[graph.EdgeID]map[int]float64{}
	touch := func(e graph.EdgeID) map[int]float64 {
		if linkRows[e] == nil {
			linkRows[e] = map[int]float64{}
		}
		return linkRows[e]
	}
	for key, z := range enc.zCol {
		touch(key.edge)[z] = p.Rate
	}
	for _, y := range enc.ys {
		if enc.metas[y.meta].inter {
			continue
		}
		for _, e := range y.path.Edges {
			touch(e)[y.col] += p.Rate
		}
	}
	edgeKeys := make([]graph.EdgeID, 0, len(linkRows))
	for e := range linkRows {
		edgeKeys = append(edgeKeys, e)
	}
	sort.Slice(edgeKeys, func(i, j int) bool { return edgeKeys[i] < edgeKeys[j] })
	for _, e := range edgeKeys {
		addRow(linkRows[e], lp.LE, ledger.EdgeResidual(e))
	}

	enc.prog = prob
	return nil
}

// Decode converts a binary solution vector into a core.Solution.
func (enc *Encoding) Decode(x []float64) (*core.Solution, error) {
	if len(x) != enc.prog.numVars {
		return nil, fmt.Errorf("ipmodel: solution has %d values for %d variables", len(x), enc.prog.numVars)
	}
	chosen := make([]graph.NodeID, len(enc.positions))
	for i := range enc.positions {
		found := false
		for j, v := range enc.cands[i] {
			if x[enc.xCol[i][j]] > 0.5 {
				chosen[i] = v
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("ipmodel: position %d unassigned", i)
		}
	}
	paths := make([]graph.Path, len(enc.metas))
	assigned := make([]bool, len(enc.metas))
	for _, y := range enc.ys {
		if x[y.col] > 0.5 {
			if assigned[y.meta] {
				return nil, fmt.Errorf("ipmodel: meta-path %d implemented twice", y.meta)
			}
			paths[y.meta] = y.path
			assigned[y.meta] = true
		}
	}
	for mi := range enc.metas {
		if !assigned[mi] {
			return nil, fmt.Errorf("ipmodel: meta-path %d unimplemented", mi)
		}
	}

	sol := &core.Solution{}
	mi := 0
	pi := 0
	for _, spec := range enc.p.LayerSpecs() {
		le := core.LayerEmbedding{}
		width := len(spec.VNFs)
		for gi := 0; gi < width; gi++ {
			le.Nodes = append(le.Nodes, chosen[pi+gi])
		}
		if spec.Merger {
			le.MergerNode = chosen[pi+width]
		} else {
			le.MergerNode = le.Nodes[0]
		}
		for gi := 0; gi < width; gi++ {
			le.InterPaths = append(le.InterPaths, paths[mi])
			mi++
		}
		if spec.Merger {
			for gi := 0; gi < width; gi++ {
				le.InnerPaths = append(le.InnerPaths, paths[mi])
				mi++
			}
			pi += width + 1
		} else {
			pi += width
		}
		sol.Layers = append(sol.Layers, le)
	}
	sol.TailPath = paths[mi]
	return sol, nil
}

// Embed encodes, solves and decodes in one step. It answers the program's
// optimum or an error: a search the node limit cut short is an error even
// when it holds an incumbent, which may be far from optimal.
func Embed(p *core.Problem, opts Options) (*core.Result, error) {
	return embed(p, opts, defaultMaxNodes)
}

// embed is Embed under a node limit of maxNodes.
func embed(p *core.Problem, opts Options, maxNodes int) (*core.Result, error) {
	enc, err := Encode(p, opts)
	if err != nil {
		return nil, err
	}
	sol, err := solve(enc.prog, maxNodes)
	if err != nil {
		if errors.Is(err, errInfeasible) {
			return nil, fmt.Errorf("%w: integer program infeasible", core.ErrNoEmbedding)
		}
		return nil, err
	}
	if !sol.proven {
		return nil, fmt.Errorf("ipmodel: branch and bound stopped at the %d-node limit before proving its incumbent (objective %v) optimal",
			sol.nodes, sol.objective)
	}
	s, err := enc.Decode(sol.x)
	if err != nil {
		return nil, err
	}
	if err := core.Validate(p, s); err != nil {
		return nil, fmt.Errorf("ipmodel: decoded solution invalid: %w", err)
	}
	cb, err := core.ComputeCost(p, s)
	if err != nil {
		return nil, err
	}
	return &core.Result{Solution: s, Cost: cb}, nil
}

func ledgerOf(p *core.Problem) *network.Ledger {
	if p.Ledger == nil {
		p.Ledger = network.NewLedger(p.Net)
	}
	return p.Ledger
}
