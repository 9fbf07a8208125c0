package core

import (
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// DelayParams configures the end-to-end delay model of the paper's Fig. 1
// motivation (after NFP and ParaBox): parallel VNFs process the flow
// concurrently, so a layer's delay is the maximum over its branches rather
// than their sum. The delay-bounded search (Options.MaxDelay) prices partial
// embeddings with it and EvaluateDelay prices a finished one. All delays are
// in arbitrary time units.
type DelayParams struct {
	// ProcDelay overrides the processing delay of specific categories.
	ProcDelay map[network.VNFID]float64
	// DefaultProcDelay applies to categories absent from ProcDelay.
	DefaultProcDelay float64
	// MergerDelay is the cost of integrating the parallel branches'
	// intermediate results.
	MergerDelay float64
	// HopDelay is the propagation delay per traversed link.
	HopDelay float64
}

// DefaultDelayParams returns a middlebox-like configuration: 1.0 per VNF,
// 0.1 per merge, 0.05 per hop.
func DefaultDelayParams() DelayParams {
	return DelayParams{DefaultProcDelay: 1.0, MergerDelay: 0.1, HopDelay: 0.05}
}

// proc returns the processing delay of category f.
func (d DelayParams) proc(f network.VNFID) float64 {
	if t, ok := d.ProcDelay[f]; ok {
		return t
	}
	return d.DefaultProcDelay
}

// layerDelay is one layer's contribution: the slowest branch (inter-layer
// path + processing + inner-layer path) plus the merger overhead for a
// parallel layer. inner is read only when parallel.
func (d DelayParams) layerDelay(vnfs []network.VNFID, inter, inner []graph.Path, parallel bool) float64 {
	slowest := 0.0
	for i, f := range vnfs {
		t := float64(inter[i].Len())*d.HopDelay + d.proc(f)
		if parallel {
			t += float64(inner[i].Len()) * d.HopDelay
		}
		if t > slowest {
			slowest = t
		}
	}
	if parallel {
		slowest += d.MergerDelay
	}
	return slowest
}

// EvaluateDelay computes the end-to-end delay of a solution: the layers'
// delays summed over the serial layers, plus the tail path's propagation
// delay.
func EvaluateDelay(p *Problem, s *Solution, d DelayParams) float64 {
	total := 0.0
	for li, le := range s.Layers {
		spec := p.SFC.Layers[li]
		total += d.layerDelay(spec.VNFs, le.InterPaths, le.InnerPaths, spec.Parallel())
	}
	return total + float64(s.TailPath.Len())*d.HopDelay
}

// SequentialProblem returns a copy of p whose SFC is the fully sequential
// form of the same VNF multiset (one layer per VNF, original order) and
// whose ledger is fresh: the "traditional SFC" to compare a hybrid
// embedding's delay against.
func SequentialProblem(p *Problem) *Problem {
	q := *p
	q.Ledger = nil
	q.SFC = sfc.FromChain(p.SFC.Sequence())
	return &q
}
