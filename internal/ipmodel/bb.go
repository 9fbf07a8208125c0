package ipmodel

import (
	"errors"
	"fmt"
	"math"

	"dagsfc/internal/lp"
)

// The solver under the encoding: LP-based branch and bound over small 0-1
// programs. Each node solves the LP relaxation (internal/lp) with the node's
// variable fixings, prunes by bound against the incumbent, and branches on
// the most fractional binary variable, depth first.

// program is: minimize objective·x subject to the constraints, x ≥ 0, and
// x_j ∈ {0,1} for every j with binary[j]; the other variables are
// continuous (a mixed 0-1 program).
type program struct {
	numVars     int
	objective   []float64
	constraints []lp.Constraint
	binary      []bool // len numVars
}

// defaultMaxNodes bounds the branch and bound behind Embed.
const defaultMaxNodes = 200000

// bbSolution is the incumbent a search ended with.
type bbSolution struct {
	x         []float64
	objective float64
	// nodes is the number of branch-and-bound nodes explored.
	nodes int
	// proven reports that no branch was cut off by the node limit, so the
	// incumbent is optimal (within float tolerance).
	proven bool
}

// Errors returned by solve.
var (
	errInfeasible = errors.New("ipmodel: integer program infeasible")
	errNodeLimit  = errors.New("ipmodel: node limit reached without an integer solution")
)

const intTol = 1e-6

// solve runs branch and bound, exploring at most maxNodes nodes. An
// incumbent found before the limit cut a branch off comes back with
// proven false and a nil error: whether a truncated answer will do is the
// caller's call.
func solve(p program, maxNodes int) (bbSolution, error) {
	if len(p.binary) != p.numVars {
		return bbSolution{}, fmt.Errorf("ipmodel: binary has %d entries for %d variables", len(p.binary), p.numVars)
	}

	// Base LP: original constraints plus x_j <= 1 for binaries. Branching
	// appends fixing rows (x_j = 0 or x_j = 1) per node.
	base := lp.Problem{NumVars: p.numVars, Objective: p.objective}
	base.Constraints = append(base.Constraints, p.constraints...)
	for j := 0; j < p.numVars; j++ {
		if p.binary[j] {
			row := make([]float64, j+1)
			row[j] = 1
			base.Constraints = append(base.Constraints, lp.Constraint{Coeffs: row, Sense: lp.LE, RHS: 1})
		}
	}

	s := &search{p: p, base: base, maxNodes: maxNodes, bestObj: math.Inf(1)}
	s.branch(nil)

	sol := bbSolution{nodes: s.nodes, proven: !s.truncated}
	if s.bestX == nil {
		if s.truncated && !s.rootInfeasible {
			return sol, errNodeLimit
		}
		return sol, errInfeasible
	}
	sol.x = s.bestX
	sol.objective = s.bestObj
	return sol, nil
}

type fixing struct {
	variable int
	value    int // 0 or 1
}

type search struct {
	p        program
	base     lp.Problem
	maxNodes int

	nodes          int
	bestX          []float64
	bestObj        float64
	rootInfeasible bool
	// truncated records that the node limit stopped a branch: some part
	// of the tree went unexplored.
	truncated bool
}

// branch explores one node defined by the fixings list (depth-first).
func (s *search) branch(fixings []fixing) {
	if s.nodes >= s.maxNodes {
		s.truncated = true
		return
	}
	s.nodes++

	relaxed := s.base
	// Full-capacity re-slice so appending fixing rows never mutates the
	// shared base constraint array.
	relaxed.Constraints = relaxed.Constraints[:len(relaxed.Constraints):len(relaxed.Constraints)]
	for _, f := range fixings {
		row := make([]float64, f.variable+1)
		row[f.variable] = 1
		relaxed.Constraints = append(relaxed.Constraints,
			lp.Constraint{Coeffs: row, Sense: lp.EQ, RHS: float64(f.value)})
	}
	rel, err := lp.Solve(relaxed)
	if err != nil {
		if s.nodes == 1 {
			s.rootInfeasible = true
		}
		return // infeasible or numerically hopeless branch: prune
	}
	// Bound: the relaxation is a lower bound on any completion.
	if rel.Objective >= s.bestObj-1e-9 {
		return
	}
	// Most fractional binary variable.
	branchVar := -1
	worst := intTol
	for j := 0; j < s.p.numVars; j++ {
		if !s.p.binary[j] {
			continue
		}
		frac := math.Abs(rel.X[j] - math.Round(rel.X[j]))
		if frac > worst {
			worst = frac
			branchVar = j
		}
	}
	if branchVar == -1 {
		// Integer feasible: new incumbent.
		if rel.Objective < s.bestObj-1e-9 {
			x := make([]float64, len(rel.X))
			copy(x, rel.X)
			// Snap binaries exactly.
			for j := range x {
				if s.p.binary[j] {
					x[j] = math.Round(x[j])
				}
			}
			s.bestX = x
			s.bestObj = rel.Objective
		}
		return
	}
	// Branch on the rounding direction suggested by the relaxation first.
	first, second := 1, 0
	if rel.X[branchVar] < 0.5 {
		first, second = 0, 1
	}
	s.branch(append(fixings, fixing{branchVar, first}))
	s.branch(append(fixings, fixing{branchVar, second}))
}
