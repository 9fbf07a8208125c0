// Package sim is the evaluation harness (§5): it draws simulation
// instances from the paper's generators, runs every algorithm on the same
// instance, and aggregates cost, failure and runtime statistics across
// trials — 100 per point in the paper — so each of the paper's figures can
// be regenerated as a table.
package sim

import (
	"fmt"
	"math/rand"
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

// Algorithm identifies an embedding algorithm under evaluation.
type Algorithm string

// The algorithms the paper evaluates, plus the exact reference solver used
// by the optimality-gap experiment.
const (
	BBE   Algorithm = "BBE"
	MBBE  Algorithm = "MBBE"
	RANV  Algorithm = "RANV"
	MINV  Algorithm = "MINV"
	EXACT Algorithm = "EXACT"
	// ILP solves the paper's §3.3 integer program by branch and bound
	// (internal/ipmodel); tractable only on very small instances.
	ILP Algorithm = "ILP"
)

// PointConfig is the generator configuration of one x-axis point.
type PointConfig struct {
	Net netgen.Config
	SFC sfcgen.Config
}

// Experiment describes one of the paper's evaluation sweeps: an x-axis, a
// generator configuration per x value, and the algorithms to compare.
type Experiment struct {
	// Name is the short identifier (e.g. "fig6a") used by the CLI.
	Name string
	// Title describes the sweep, e.g. "Impact of the SFC size".
	Title string
	// XLabel names the varied parameter.
	XLabel string
	// Xs are the x-axis values.
	Xs []float64
	// Algorithms to run at every point.
	Algorithms []Algorithm
	// Trials per point (the paper uses 100).
	Trials int
	// Configure maps an x value to generator configurations.
	Configure func(x float64) PointConfig
	// Skip reports whether an algorithm is skipped at x (the paper stops
	// BBE at SFC size 5 because of its exponential running time).
	Skip func(alg Algorithm, x float64) bool
	// Parallelism runs this many trials concurrently (each trial is an
	// independent instance). 0 or 1 means sequential. Aggregation is
	// deterministic regardless of parallelism: per-trial outcomes are
	// collected and reduced in trial order, and wall-clock timings are
	// averaged the same way. Note that timings measured under heavy
	// parallelism include scheduler noise; use sequential runs for the
	// runtime experiment.
	Parallelism int
	// Custom maps additional algorithm names to embedders, letting
	// downstream users benchmark their own algorithms against the
	// built-ins on identical instances. Checked before the built-in
	// names; entries must be safe for concurrent use when Parallelism>1.
	Custom map[Algorithm]EmbedFunc
}

// EmbedFunc is a custom embedding algorithm for Experiment.Custom. The
// seed is deterministic per (experiment seed, point, trial) for
// algorithms that need randomness.
type EmbedFunc func(p *core.Problem, seed int64) (*core.Result, error)

// Cell aggregates one (x, algorithm) cell of a result table.
type Cell struct {
	Cost     stats.Summary
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
// algorithm on the same instance, costs averaged over successful runs
// (matching the paper's methodology). The master seed makes the whole
// sweep reproducible.
func (e *Experiment) Run(seed int64) ([]Point, error) {
	points := make([]Point, 0, len(e.Xs))
	for xi, x := range e.Xs {
		cfg := e.Configure(x)
		if err := cfg.Net.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s x=%v: %w", e.Name, x, err)
		}
		if err := cfg.SFC.Validate(); err != nil {
			return nil, fmt.Errorf("sim: %s x=%v: %w", e.Name, x, err)
		}
		point := Point{X: x, Cells: make(map[Algorithm]*Cell)}
		acc := make(map[Algorithm]*stats.Accumulator)
		times := make(map[Algorithm]*stats.Accumulator)
		for _, alg := range e.Algorithms {
			point.Cells[alg] = &Cell{}
			acc[alg] = &stats.Accumulator{}
			times[alg] = &stats.Accumulator{}
		}
		outcomes := e.runTrials(cfg, x, xi, seed)
		for _, tr := range outcomes {
			for _, alg := range e.Algorithms {
				o, ok := tr[alg]
				if !ok {
					continue // skipped
				}
				times[alg].Add(float64(o.elapsed))
				if o.err != nil {
					point.Cells[alg].Failures++
					continue
				}
				acc[alg].Add(o.cost)
			}
		}
		for _, alg := range e.Algorithms {
			point.Cells[alg].Cost = acc[alg].Summarize()
			if times[alg].N() > 0 {
				point.Cells[alg].AvgTime = time.Duration(times[alg].Mean())
			}
		}
		points = append(points, point)
	}
	return points, nil
}

// outcome is the result of one (trial, algorithm) run.
type outcome struct {
	cost    float64
	elapsed time.Duration
	err     error
}

// runTrials executes every trial of one point, optionally in parallel,
// and returns per-trial outcome maps in trial order.
func (e *Experiment) runTrials(cfg PointConfig, x float64, xi int, seed int64) []map[Algorithm]outcome {
	results := make([]map[Algorithm]outcome, e.Trials)
	oneTrial := func(trial int) {
		inst := drawInstance(cfg, trialSeed(seed, xi, trial))
		out := make(map[Algorithm]outcome, len(e.Algorithms))
		for _, alg := range e.Algorithms {
			if e.Skip != nil && e.Skip(alg, x) {
				continue
			}
			res, elapsed, err := e.runOne(alg, inst, trialSeed(seed, xi, trial)^0x5f3759df)
			o := outcome{elapsed: elapsed, err: err}
			if err == nil {
				o.cost = res.Cost.Total()
			}
			out[alg] = o
		}
		results[trial] = out
	}
	workers := e.Parallelism
	if workers <= 1 {
		for trial := 0; trial < e.Trials; trial++ {
			oneTrial(trial)
		}
		return results
	}
	if workers > e.Trials {
		workers = e.Trials
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

// instance is one concrete trial: a network, an SFC and a flow.
type instance struct {
	cfg PointConfig
	p   *core.Problem
}

// drawInstance generates one simulation instance deterministically from a
// seed: network, SFC, and a distinct source-destination pair.
func drawInstance(cfg PointConfig, seed int64) *instance {
	rng := rand.New(rand.NewSource(seed))
	net := netgen.MustGenerate(cfg.Net, rng)
	s := sfcgen.MustGenerate(cfg.SFC, rng)
	n := net.G.NumNodes()
	src := graph.NodeID(rng.Intn(n))
	dst := graph.NodeID(rng.Intn(n))
	for dst == src && n > 1 {
		dst = graph.NodeID(rng.Intn(n))
	}
	return &instance{
		cfg: cfg,
		p:   &core.Problem{Net: net, SFC: s, Src: src, Dst: dst, Rate: 1, Size: 1},
	}
}

// runOne executes one algorithm on a fresh copy of the instance's problem
// (its own ledger) and times it, dispatching to Custom entries first.
func (e *Experiment) runOne(alg Algorithm, inst *instance, seed int64) (*core.Result, time.Duration, error) {
	if custom, ok := e.Custom[alg]; ok {
		p := *inst.p
		p.Ledger = nil
		start := time.Now()
		res, err := custom(&p, seed)
		return res, time.Since(start), err
	}
	return runBuiltin(alg, inst, seed)
}

// runBuiltin executes one of the built-in algorithms.
func runBuiltin(alg Algorithm, inst *instance, seed int64) (*core.Result, time.Duration, error) {
	p := *inst.p // shallow copy shares the immutable network
	p.Ledger = nil
	start := time.Now()
	var res *core.Result
	var err error
	switch alg {
	case BBE:
		res, err = core.Embed(&p, core.BBEOptions())
	case MBBE:
		res, err = core.Embed(&p, core.MBBEOptions())
	case RANV:
		res, err = baseline.EmbedRANV(&p, rand.New(rand.NewSource(seed)))
	case MINV:
		res, err = baseline.EmbedMINV(&p)
	case EXACT:
		res, err = exact.Embed(&p, exact.Limits{})
	case ILP:
		res, err = ipmodel.Embed(&p, ipmodel.Options{PathsPerPair: 2})
	default:
		return nil, 0, fmt.Errorf("sim: unknown algorithm %q", alg)
	}
	return res, time.Since(start), err
}

// trialSeed derives a deterministic per-trial seed.
func trialSeed(master int64, point, trial int) int64 {
	h := uint64(master)*0x9e3779b97f4a7c15 + uint64(point)*0xbf58476d1ce4e5b9 + uint64(trial)*0x94d049bb133111eb
	h ^= h >> 31
	return int64(h & 0x7fffffffffffffff)
}
