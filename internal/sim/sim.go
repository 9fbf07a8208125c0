// Package sim is the evaluation harness (§5): it draws simulation
// instances from the paper's generators, runs every arm of a sweep on the
// same instance, and aggregates cost, delay, failure and runtime statistics
// across trials — 100 per point in the paper — so each of the paper's
// figures can be regenerated as a table.
package sim

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/exact"
	"dagsfc/internal/graph"
	"dagsfc/internal/ipmodel"
	"dagsfc/internal/netgen"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/stats"
)

// Algorithm names one arm of a sweep: an embedding algorithm, and the form
// of the trial's instance it runs on.
type Algorithm string

// The algorithms the paper evaluates, plus the exact reference solvers and
// the arms of the delay experiments.
const (
	BBE   Algorithm = "BBE"
	MBBE  Algorithm = "MBBE"
	RANV  Algorithm = "RANV"
	MINV  Algorithm = "MINV"
	EXACT Algorithm = "EXACT"
	// ILP solves the paper's §3.3 integer program by branch and bound
	// (internal/ipmodel); tractable only on very small instances.
	ILP Algorithm = "ILP"
	// SEQ is MBBE on the fully sequential form of the instance's SFC
	// (core.SequentialProblem): the traditional chain a hybrid embedding's
	// delay is compared against.
	SEQ Algorithm = "MBBE-seq"
)

// budgetPrefix names the arms budget makes.
const budgetPrefix = "MBBE≤"

// budget is MBBE under an end-to-end delay budget of factor × the delay of
// the same instance's unbounded MBBE embedding, so a factor below 1 demands
// a strictly faster embedding than cost-greedy MBBE picks.
func budget(factor float64) Algorithm {
	return Algorithm(budgetPrefix + strconv.FormatFloat(factor, 'g', -1, 64))
}

// factor returns the delay-budget factor of an arm made by budget.
func (a Algorithm) factor() (float64, bool) {
	s, ok := strings.CutPrefix(string(a), budgetPrefix)
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && f > 0
}

// known reports whether embed runs a.
func (a Algorithm) known() bool {
	switch a {
	case BBE, MBBE, SEQ, RANV, MINV, EXACT, ILP:
		return true
	}
	_, ok := a.factor()
	return ok
}

// PointConfig is the generator configuration of one x-axis point.
type PointConfig struct {
	Net netgen.Config
	SFC sfcgen.Config
	// delay is the model the point's embeddings are measured under.
	delay core.DelayParams
	// topology draws the network; nil draws netgen's random graph.
	topology *topoBuilder
}

// Experiment describes one of the paper's evaluation sweeps: an x-axis, a
// generator configuration per x value, and the arms to compare.
type Experiment struct {
	// Name is the short identifier (e.g. "fig6a") used by the CLI.
	Name string
	// Title describes the sweep, e.g. "Impact of the SFC size".
	Title string
	// XLabel names the varied parameter.
	XLabel string
	// Xs are the x-axis values.
	Xs []float64
	// Algorithms are the arms run on every instance of every point.
	Algorithms []Algorithm
	// Trials per point (the paper uses 100).
	Trials int
	// Configure maps an x value to its point configuration.
	Configure func(x float64) PointConfig
	// Skip reports whether an algorithm is skipped at x (the paper stops
	// BBE at SFC size 5 because of its exponential running time).
	Skip func(alg Algorithm, x float64) bool
	// Parallelism runs this many trials concurrently (each trial is an
	// independent instance). 0 or 1 means sequential. Aggregation is
	// deterministic regardless of parallelism: per-trial outcomes are
	// collected and reduced in trial order. Timings measured under heavy
	// parallelism include scheduler noise; use sequential runs for the
	// runtime experiment.
	Parallelism int
}

// Cell aggregates one (x, algorithm) cell of a result table.
type Cell struct {
	Cost stats.Summary
	// Delay is the end-to-end delay of the successful runs under the
	// point's delay model.
	Delay    stats.Summary
	Failures int
	// AvgTime is the mean wall-clock time per embedding attempt.
	AvgTime time.Duration
}

// Point is the aggregated result of one x value.
type Point struct {
	X     float64
	Cells map[Algorithm]*Cell
}

// Run executes the experiment: Trials instances per x value, every
// algorithm on the same instance, costs and delays averaged over successful
// runs (matching the paper's methodology). The master seed makes the whole
// sweep reproducible, whatever the Parallelism.
func (e *Experiment) Run(seed int64) ([]Point, error) {
	for _, alg := range e.Algorithms {
		if !alg.known() {
			return nil, fmt.Errorf("sim: %s: unknown algorithm %q", e.Name, alg)
		}
	}
	points := make([]Point, 0, len(e.Xs))
	for xi, x := range e.Xs {
		cfg := e.Configure(x)
		if err := cfg.Net.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s x=%v: %w", e.Name, x, err)
		}
		if err := cfg.SFC.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s x=%v: %w", e.Name, x, err)
		}
		trials := e.runTrials(cfg, x, xi, seed)
		point := Point{X: x, Cells: make(map[Algorithm]*Cell, len(e.Algorithms))}
		for ai, alg := range e.Algorithms {
			cell := &Cell{}
			var cost, delay, elapsed stats.Accumulator
			for _, tr := range trials {
				o := tr[ai]
				if !o.ran {
					continue
				}
				elapsed.Add(float64(o.elapsed))
				if o.err != nil {
					cell.Failures++
					continue
				}
				cost.Add(o.cost)
				delay.Add(o.delay)
			}
			cell.Cost, cell.Delay = cost.Summarize(), delay.Summarize()
			if elapsed.N() > 0 {
				cell.AvgTime = time.Duration(elapsed.Mean())
			}
			point.Cells[alg] = cell
		}
		points = append(points, point)
	}
	return points, nil
}

// outcome is the result of one (trial, algorithm) run.
type outcome struct {
	ran         bool // false where Skip left the algorithm out
	cost, delay float64
	elapsed     time.Duration
	err         error
}

// runTrials executes every trial of one point, optionally in parallel,
// and returns each trial's outcomes, in trial and then algorithm order.
func (e *Experiment) runTrials(cfg PointConfig, x float64, xi int, seed int64) [][]outcome {
	results := make([][]outcome, e.Trials)
	oneTrial := func(trial int) {
		ts := trialSeed(seed, xi, trial)
		p := drawInstance(cfg, ts)
		out := make([]outcome, len(e.Algorithms))
		for ai, alg := range e.Algorithms {
			if e.Skip != nil && e.Skip(alg, x) {
				continue
			}
			q, res, elapsed, err := embed(alg, p, cfg.delay, ts^0x5f3759df)
			out[ai] = outcome{ran: true, elapsed: elapsed, err: err}
			if err == nil {
				out[ai].cost = res.Cost.Total()
				out[ai].delay = core.EvaluateDelay(q, res.Solution, cfg.delay)
			}
		}
		results[trial] = out
	}
	workers := min(e.Parallelism, e.Trials)
	if workers <= 1 {
		for trial := 0; trial < e.Trials; trial++ {
			oneTrial(trial)
		}
		return results
	}
	var wg sync.WaitGroup
	trials := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for trial := range trials {
				oneTrial(trial)
			}
		}()
	}
	for trial := 0; trial < e.Trials; trial++ {
		trials <- trial
	}
	close(trials)
	wg.Wait()
	return results
}

// drawInstance generates one simulation instance deterministically from a
// seed: network, SFC, and a distinct source-destination pair.
func drawInstance(cfg PointConfig, seed int64) *core.Problem {
	rng := rand.New(rand.NewSource(seed))
	net, err := cfg.topology.build(cfg.Net, rng)
	if err != nil {
		panic(err) // the catalog's builders fail only on configurations Run refuses
	}
	n := net.G.NumNodes()
	s, src, dst := sfcgen.MustFlow(cfg.SFC, n, rng)
	for dst == src && n > 1 {
		dst = graph.NodeID(rng.Intn(n))
	}
	return &core.Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1}
}

// embed runs one algorithm on a copy of the instance's problem (the copy
// shares the immutable network; its nil ledger gives every run a fresh
// one) and times it. It returns the problem the solution answers: SEQ
// embeds the sequential form of the instance.
func embed(alg Algorithm, inst *core.Problem, d core.DelayParams, seed int64) (*core.Problem, *core.Result, time.Duration, error) {
	p := *inst
	start := time.Now()
	var res *core.Result
	var err error
	switch alg {
	case BBE:
		res, err = core.Embed(&p, core.BBEOptions())
	case MBBE:
		res, err = core.EmbedMBBE(&p)
	case SEQ:
		p = *core.SequentialProblem(&p)
		res, err = core.EmbedMBBE(&p)
	case RANV:
		res, err = baseline.EmbedRANV(&p, rand.New(rand.NewSource(seed)))
	case MINV:
		res, err = baseline.EmbedMINV(&p)
	case EXACT:
		res, err = exact.Embed(&p)
	case ILP:
		res, err = ipmodel.Embed(&p)
	default: // a budget arm: Run refuses any other name
		factor, _ := alg.factor()
		if res, err = core.EmbedMBBE(&p); err == nil {
			opts := core.MBBEOptions()
			opts.MaxDelay = factor * core.EvaluateDelay(&p, res.Solution, d)
			opts.Delay = d
			res, err = core.Embed(&p, opts)
		}
	}
	return &p, res, time.Since(start), err
}

// trialSeed derives a deterministic per-trial seed.
func trialSeed(master int64, point, trial int) int64 {
	h := uint64(master)*0x9e3779b97f4a7c15 + uint64(point)*0xbf58476d1ce4e5b9 + uint64(trial)*0x94d049bb133111eb
	h ^= h >> 31
	return int64(h & 0x7fffffffffffffff)
}
