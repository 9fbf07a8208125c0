package sim

import (
	"math"

	"dagsfc/internal/core"
	"dagsfc/internal/stats"
)

// ParetoPoint is one delay-budget factor's aggregate: the cost of meeting
// a bound of factor × (the same instance's unbounded embedding delay).
type ParetoPoint struct {
	// Factor scales the unbounded delay; +Inf is the unbounded reference.
	Factor     float64
	Cost       stats.Summary
	Delay      stats.Summary
	Infeasible int
}

// paretoParams makes propagation significant (0.5 per hop vs 1.0 per
// VNF): under the library default (0.05 per hop) the Table 2 instances
// embed within one hop of optimal delay anyway and no trade-off is
// visible.
func paretoParams() core.DelayParams {
	return core.DelayParams{DefaultProcDelay: 1, MergerDelay: 0.1, HopDelay: 0.5}
}

// RunPareto sweeps the end-to-end delay budget for MBBE on Table 2
// instances, exposing the cost-of-latency trade-off the delay-bounded
// embedding mode (core.Options.MaxDelay) navigates. Budgets are relative:
// each instance is first embedded unbounded, then re-embedded with
// MaxDelay = factor × that embedding's delay, so a factor below 1 demands
// a strictly faster embedding than cost-greedy MBBE would pick.
func RunPareto(factors []float64, trials int, seed int64) ([]ParetoPoint, error) {
	params := paretoParams()
	cfg := baseConfig()
	// High price dispersion creates the cost/delay tension: with the
	// Table 2 fluctuation (5%) every instance costs about the same, so
	// the cost-greedy embedding is already delay-minimal and tightening
	// the budget is simply infeasible. At 50% dispersion MBBE detours to
	// cheap instances, and the budget buys that detour back.
	cfg.Net.VNFPriceFluct = 0.5
	points := make([]ParetoPoint, len(factors))
	for i, f := range factors {
		points[i].Factor = f
	}
	accCost := make([]*stats.Accumulator, len(factors))
	accDelay := make([]*stats.Accumulator, len(factors))
	for i := range factors {
		accCost[i] = &stats.Accumulator{}
		accDelay[i] = &stats.Accumulator{}
	}
	for trial := 0; trial < trials; trial++ {
		inst := drawInstance(cfg, trialSeed(seed, 0, trial))
		base := *inst.p
		base.Ledger = nil
		ref, err := core.EmbedMBBE(&base)
		if err != nil {
			for i := range factors {
				points[i].Infeasible++
			}
			continue
		}
		refDelay := core.EvaluateDelay(&base, ref.Solution, params)
		for i, factor := range factors {
			if math.IsInf(factor, 1) {
				accCost[i].Add(ref.Cost.Total())
				accDelay[i].Add(refDelay)
				continue
			}
			p := *inst.p
			p.Ledger = nil
			opts := core.MBBEOptions()
			opts.MaxDelay = factor * refDelay
			opts.Delay = params
			res, err := core.Embed(&p, opts)
			if err != nil {
				points[i].Infeasible++
				continue
			}
			accCost[i].Add(res.Cost.Total())
			accDelay[i].Add(core.EvaluateDelay(&p, res.Solution, params))
		}
	}
	for i := range factors {
		points[i].Cost = accCost[i].Summarize()
		points[i].Delay = accDelay[i].Summarize()
	}
	return points, nil
}

// DefaultParetoBounds lists the default budget factors, tight to
// unbounded.
func DefaultParetoBounds() []float64 {
	return []float64{0.6, 0.7, 0.8, 0.9, 1.0, math.Inf(1)}
}

// ParetoTable renders the sweep.
func ParetoTable(points []ParetoPoint) *Table {
	t := &Table{
		Title:  "Delay-bounded MBBE: cost of tightening the delay budget (factor × unbounded delay)",
		Header: []string{"budget factor", "mean cost", "mean delay", "infeasible"},
	}
	for _, p := range points {
		factor := "unbounded"
		if !math.IsInf(p.Factor, 1) {
			factor = num(p.Factor)
		}
		t.AddRow(factor, num(p.Cost.Mean), num(p.Delay.Mean),
			num(float64(p.Infeasible)))
	}
	return t
}
