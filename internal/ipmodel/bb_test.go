package ipmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/lp"
)

func allBinary(n int) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = true
	}
	return b
}

func TestKnapsack(t *testing.T) {
	// max 10a+13b+7c s.t. 3a+4b+2c <= 6  -> a=0,b=c=1: 20; vs a+c=17, a+b (7>6 infeasible).
	p := program{
		numVars:   3,
		objective: []float64{-10, -13, -7},
		constraints: []lp.Constraint{
			{Coeffs: []float64{3, 4, 2}, Sense: lp.LE, RHS: 6},
		},
		binary: allBinary(3),
	}
	s, err := solve(p, defaultMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.objective+20) > 1e-6 {
		t.Fatalf("objective = %v, want -20", s.objective)
	}
	if s.x[0] != 0 || s.x[1] != 1 || s.x[2] != 1 {
		t.Fatalf("x = %v, want [0 1 1]", s.x)
	}
	if !s.proven {
		t.Fatal("tiny knapsack should be proven optimal")
	}
}

func TestAssignmentProblemMatchesBruteForce(t *testing.T) {
	// 3x3 assignment: x_{ij} binary, each row/col exactly once, minimize
	// total cost; compare against permutation enumeration.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		var cost [3][3]float64
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				cost[i][j] = float64(rng.Intn(50))
			}
		}
		p := program{numVars: 9, binary: allBinary(9)}
		p.objective = make([]float64, 9)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				p.objective[3*i+j] = cost[i][j]
			}
		}
		for i := 0; i < 3; i++ {
			row := make([]float64, 9)
			col := make([]float64, 9)
			for j := 0; j < 3; j++ {
				row[3*i+j] = 1
				col[3*j+i] = 1
			}
			p.constraints = append(p.constraints,
				lp.Constraint{Coeffs: row, Sense: lp.EQ, RHS: 1},
				lp.Constraint{Coeffs: col, Sense: lp.EQ, RHS: 1})
		}
		s, err := solve(p, defaultMaxNodes)
		if err != nil {
			t.Fatal(err)
		}
		best := math.Inf(1)
		perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
		for _, perm := range perms {
			c := cost[0][perm[0]] + cost[1][perm[1]] + cost[2][perm[2]]
			if c < best {
				best = c
			}
		}
		if math.Abs(s.objective-best) > 1e-6 {
			t.Fatalf("trial %d: bb %v, brute force %v", trial, s.objective, best)
		}
	}
}

func TestSetCover(t *testing.T) {
	// Elements {1..4}; sets A={1,2} c=2, B={3,4} c=2, C={1,2,3,4} c=3.
	// Optimal: C alone (3) beats A+B (4).
	p := program{
		numVars:   3,
		objective: []float64{2, 2, 3},
		constraints: []lp.Constraint{
			{Coeffs: []float64{1, 0, 1}, Sense: lp.GE, RHS: 1}, // e1
			{Coeffs: []float64{1, 0, 1}, Sense: lp.GE, RHS: 1}, // e2
			{Coeffs: []float64{0, 1, 1}, Sense: lp.GE, RHS: 1}, // e3
			{Coeffs: []float64{0, 1, 1}, Sense: lp.GE, RHS: 1}, // e4
		},
		binary: allBinary(3),
	}
	s, err := solve(p, defaultMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.objective-3) > 1e-6 || s.x[2] != 1 {
		t.Fatalf("set cover: obj %v x %v, want C alone", s.objective, s.x)
	}
}

func TestInfeasibleILP(t *testing.T) {
	p := program{
		numVars:   2,
		objective: []float64{1, 1},
		constraints: []lp.Constraint{
			{Coeffs: []float64{1, 1}, Sense: lp.GE, RHS: 3}, // two binaries can't sum to 3
		},
		binary: allBinary(2),
	}
	if _, err := solve(p, defaultMaxNodes); !errors.Is(err, errInfeasible) {
		t.Fatalf("err = %v, want errInfeasible", err)
	}
}

func TestIntegralityGapForcesBranching(t *testing.T) {
	// LP relaxation of x+y >= 1, x+z >= 1, y+z >= 1 (vertex cover on a
	// triangle) is x=y=z=0.5 with value 1.5; the ILP optimum is 2.
	p := program{
		numVars:   3,
		objective: []float64{1, 1, 1},
		constraints: []lp.Constraint{
			{Coeffs: []float64{1, 1, 0}, Sense: lp.GE, RHS: 1},
			{Coeffs: []float64{1, 0, 1}, Sense: lp.GE, RHS: 1},
			{Coeffs: []float64{0, 1, 1}, Sense: lp.GE, RHS: 1},
		},
		binary: allBinary(3),
	}
	s, err := solve(p, defaultMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.objective-2) > 1e-6 {
		t.Fatalf("triangle cover = %v, want 2", s.objective)
	}
	if s.nodes < 2 {
		t.Fatalf("expected branching, got %d nodes", s.nodes)
	}
}

func TestMixedContinuousBinary(t *testing.T) {
	// min -y - 0.5c s.t. c <= 10y, c <= 4 with y binary, c continuous:
	// y=1, c=4 -> -3.
	p := program{
		numVars:   2,
		objective: []float64{-1, -0.5},
		constraints: []lp.Constraint{
			{Coeffs: []float64{-10, 1}, Sense: lp.LE, RHS: 0},
			{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 4},
		},
		binary: []bool{true, false},
	}
	s, err := solve(p, defaultMaxNodes)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.objective+3) > 1e-6 || s.x[0] != 1 || math.Abs(s.x[1]-4) > 1e-6 {
		t.Fatalf("mixed solve = %+v", s)
	}
}

func TestNodeLimit(t *testing.T) {
	p := program{
		numVars:   2,
		objective: []float64{1, 1},
		constraints: []lp.Constraint{
			{Coeffs: []float64{1, 1}, Sense: lp.GE, RHS: 3},
		},
		binary: allBinary(2),
	}
	// The root relaxation is already infeasible, so even a one-node limit
	// reports infeasibility...
	if _, err := solve(p, 1); !errors.Is(err, errInfeasible) {
		t.Fatal("root infeasibility not detected at node limit 1")
	}
	// ...whereas a feasible problem with a fractional root cannot finish
	// in one node.
	frac := program{
		numVars:   3,
		objective: []float64{1, 1, 1},
		constraints: []lp.Constraint{
			{Coeffs: []float64{1, 1, 0}, Sense: lp.GE, RHS: 1},
			{Coeffs: []float64{1, 0, 1}, Sense: lp.GE, RHS: 1},
			{Coeffs: []float64{0, 1, 1}, Sense: lp.GE, RHS: 1},
		},
		binary: allBinary(3),
	}
	if _, err := solve(frac, 1); !errors.Is(err, errNodeLimit) {
		t.Fatalf("err = %v, want errNodeLimit at node limit", err)
	}
}

func TestBadBinaryLength(t *testing.T) {
	p := program{numVars: 2, objective: []float64{1, 1}, binary: []bool{true}}
	if _, err := solve(p, defaultMaxNodes); err == nil {
		t.Fatal("mismatched binary accepted")
	}
}

// randomKnapsack draws a 0-1 knapsack of n items as a minimization program
// and returns it with its optimum, by dynamic programming over capacity.
func randomKnapsack(rng *rand.Rand, n int) (program, float64) {
	weights := make([]int, n)
	values := make([]float64, n)
	capTotal := 0
	for i := 0; i < n; i++ {
		weights[i] = 1 + rng.Intn(9)
		values[i] = float64(1 + rng.Intn(30))
		capTotal += weights[i]
	}
	capacity := 1 + rng.Intn(capTotal)

	p := program{numVars: n, binary: allBinary(n)}
	p.objective = make([]float64, n)
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		p.objective[i] = -values[i]
		row[i] = float64(weights[i])
	}
	p.constraints = []lp.Constraint{{Coeffs: row, Sense: lp.LE, RHS: float64(capacity)}}

	dp := make([]float64, capacity+1)
	for i := 0; i < n; i++ {
		for c := capacity; c >= weights[i]; c-- {
			if v := dp[c-weights[i]] + values[i]; v > dp[c] {
				dp[c] = v
			}
		}
	}
	return p, -dp[capacity]
}

func TestRandomKnapsacksMatchDP(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		p, opt := randomKnapsack(rng, 4+rng.Intn(5))
		s, err := solve(p, defaultMaxNodes)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(s.objective-opt) > 1e-6 {
			t.Fatalf("trial %d: bb %v, dp %v", trial, s.objective, opt)
		}
	}
}

// TestNodeLimitProvenExactly runs each knapsack under every node limit up to
// the one its complete search needs. A search complete at exactly its limit
// is proven; one the limit cut short is not, whatever incumbent it holds;
// and a proven answer is the optimum.
func TestNodeLimitProvenExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	worse := 0
	for trial := 0; trial < 30; trial++ {
		p, opt := randomKnapsack(rng, 6)
		full, err := solve(p, defaultMaxNodes)
		if err != nil || !full.proven {
			t.Fatalf("trial %d: unlimited search: proven=%v, %v", trial, full.proven, err)
		}
		for limit := 1; limit <= full.nodes; limit++ {
			s, err := solve(p, limit)
			if limit == full.nodes && (err != nil || !s.proven) {
				t.Fatalf("trial %d: search complete in exactly %d nodes: proven=%v, %v", trial, limit, s.proven, err)
			}
			if err != nil {
				continue
			}
			if s.proven != (limit == full.nodes) {
				t.Fatalf("trial %d: limit %d of %d nodes reported proven=%v", trial, limit, full.nodes, s.proven)
			}
			if s.proven && math.Abs(s.objective-opt) > 1e-6 {
				t.Fatalf("trial %d: proven %v, optimum %v", trial, s.objective, opt)
			}
			if s.objective > opt+1e-6 {
				worse++
			}
		}
	}
	if worse == 0 {
		t.Fatal("no truncated search held a costlier incumbent: the limits above test nothing")
	}
}
