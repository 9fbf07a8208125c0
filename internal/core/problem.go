// Package core implements the paper's primary contribution: the optimal
// DAG-SFC embedding problem (§3.3) — its solution representation, the
// cost model of eq. (1) with the VNF/link reuse accounting of eqs. (7)–(10),
// a validator for the capacity and completeness constraints (eqs. (2)–(6))
// — and the two embedding algorithms, BBE (§4.1–4.4) and MBBE (§4.5),
// built from forward/backward searches over the paper's FST/BST search
// trees and a sub-solution tree.
package core

import (
	"fmt"
	"math"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// Problem is one optimal DAG-SFC embedding instance (Definition 1): a
// target network, a standardized DAG-SFC, and a traffic flow with a
// source-destination pair, a delivery rate R and a size z.
type Problem struct {
	Net *network.Network
	// Ledger carries pre-existing capacity commitments (the real-time
	// network view). Nil means a fresh, empty ledger.
	Ledger *network.Ledger
	SFC    sfc.DAGSFC
	Src    graph.NodeID
	Dst    graph.NodeID
	// Rate is the flow delivery rate R: every VNF use and link use
	// consumes this much capacity (times its reuse count). It must be on
	// the grid (graph.OnGrid); graph.ToGrid puts an outside rate there.
	Rate float64
	// Size is the flow size z: the cost scale factor of eq. (1).
	Size float64
}

// LedgerOrFresh returns the problem's ledger, or a fresh empty one when
// none is set — without installing it on the Problem. Every embedder and
// every read-only call (Validate, Price, Release) reads its ledger through
// this, so none mutates the caller's struct and concurrent calls sharing
// one Problem cannot race on p.Ledger. Commit reserves on it too, and
// installs a fresh one once the reservation stands.
func (p *Problem) LedgerOrFresh() *network.Ledger {
	if p.Ledger == nil {
		return network.NewLedger(p.Net)
	}
	return p.Ledger
}

// Validate reports the first structural problem with the instance.
func (p *Problem) Validate() error {
	if p.Net == nil {
		return fmt.Errorf("core: nil network")
	}
	n := p.Net.G.NumNodes()
	if p.Src < 0 || int(p.Src) >= n {
		return fmt.Errorf("core: source node %d out of range [0,%d)", p.Src, n)
	}
	if p.Dst < 0 || int(p.Dst) >= n {
		return fmt.Errorf("core: destination node %d out of range [0,%d)", p.Dst, n)
	}
	// A rate on the grid keeps every reservation exact (graph.Grain); NaN
	// and the infinities are off it.
	if !(p.Rate > 0) || !graph.OnGrid(p.Rate) {
		return fmt.Errorf("core: flow rate %v must be a positive multiple of 2⁻²⁰ no larger than 2³²", p.Rate)
	}
	if !(p.Size > 0) || math.IsInf(p.Size, 1) {
		return fmt.Errorf("core: flow size %v must be positive and finite", p.Size)
	}
	if p.Ledger != nil && p.Ledger.Network() != p.Net {
		return fmt.Errorf("core: ledger belongs to a different network")
	}
	if err := p.SFC.Validate(p.Net.Catalog); err != nil {
		return err
	}
	// Half the range covers the rounding of sums taken in another order.
	if math.IsInf(2*p.Size*p.costCeiling(), 1) {
		return fmt.Errorf("core: flow size %v is too large: the eq. (1) cost of a placement could exceed the largest float64", p.Size)
	}
	return nil
}

// costCeiling bounds the eq. (1) cost at unit size of any placement of p
// whose meta-paths are simple paths, as every search's are: each rent at
// the dearest instance's price, each meta-path n−1 links at the dearest
// link's.
func (p *Problem) costCeiling() float64 {
	rents, paths := 0, 1 // the tail
	for _, l := range p.SFC.Layers {
		rents += len(l.VNFs)
		paths += len(l.VNFs)
		if l.Parallel() {
			rents++
			paths += len(l.VNFs)
		}
	}
	return float64(rents)*p.Net.MaxRent() + float64(paths*(p.Net.G.NumNodes()-1))*p.Net.G.MaxPrice()
}

// LayerSpec is the embedding obligation of one DAG-SFC layer: φ_l regular
// VNFs plus, for parallel layers, a merger f(n+1).
type LayerSpec struct {
	// Index is the 1-based layer number l.
	Index int
	// VNFs are the regular categories of the parallel VNF set.
	VNFs []network.VNFID
	// Merger reports whether a merger must be rented for this layer.
	Merger bool
}

// appendRequired appends to dst every category the layer's forward search
// must cover: the regular VNFs plus, for parallel layers, the merger category.
func (ls LayerSpec) appendRequired(dst []network.VNFID, c network.Catalog) []network.VNFID {
	dst = append(dst, ls.VNFs...)
	if ls.Merger {
		dst = append(dst, c.Merger())
	}
	return dst
}

// LayerSpecs expands the problem's SFC into per-layer obligations.
func (p *Problem) LayerSpecs() []LayerSpec {
	return p.appendLayerSpecs(make([]LayerSpec, 0, len(p.SFC.Layers)))
}

// appendLayerSpecs appends the problem's LayerSpecs to dst.
func (p *Problem) appendLayerSpecs(dst []LayerSpec) []LayerSpec {
	for i, l := range p.SFC.Layers {
		dst = append(dst, LayerSpec{Index: i + 1, VNFs: l.VNFs, Merger: l.Parallel()})
	}
	return dst
}
