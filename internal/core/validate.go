package core

import (
	"fmt"

	"dagsfc/internal/network"
)

// Validate checks a solution against every constraint of the optimization
// model (§3.3):
//
//   - completeness (eqs. 4–6): every DAG position is assigned to exactly
//     one node that actually hosts the category, and every inter-layer and
//     inner-layer meta-path is implemented by a contiguous real-path with
//     matching endpoints;
//   - capacity (eqs. 2–3): with the reuse counts of eqs. 7–10, no VNF
//     instance exceeds its processing capability and no link exceeds its
//     bandwidth, on top of whatever the problem's ledger already committed.
//
// It returns nil exactly when the solution is feasible.
func Validate(p *Problem, s *Solution) error {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.evaluate(p, s)
	if err != nil {
		return err
	}
	return CheckCapacity(p, cb.Usage)
}

// Evaluate is the ledger-independent part of validation plus the pricing:
// it checks completeness (eqs. 4–6) and returns the objective with the
// reuse counts. Everything it reads is immutable, so it can run on any
// goroutine at any time; what remains to decide feasibility is
// CheckCapacity on the returned Usage against the ledger of the moment.
func Evaluate(p *Problem, s *Solution) (CostBreakdown, error) {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.evaluate(p, s)
	cb.Usage = cb.Usage.clone()
	return cb, err
}

// evaluate is Evaluate into the scratch; the breakdown's Usage aliases sc.
func (sc *costScratch) evaluate(p *Problem, s *Solution) (CostBreakdown, error) {
	if err := validateStructure(p, s); err != nil {
		return CostBreakdown{}, err
	}
	return sc.price(p, s)
}

// validateStructure checks the problem itself and the completeness
// constraints (eqs. 4–6) of s against it.
func validateStructure(p *Problem, s *Solution) error {
	if err := p.Validate(); err != nil {
		return err
	}
	g := p.Net.G
	merger := p.Net.Catalog.Merger()

	if len(s.Layers) != p.SFC.Omega() {
		return fmt.Errorf("core: solution has %d layers, SFC has %d", len(s.Layers), p.SFC.Omega())
	}
	for li, le := range s.Layers {
		spec := p.SFC.Layers[li]
		l := li + 1
		if len(le.Nodes) != spec.Width() {
			return fmt.Errorf("core: layer %d assigns %d VNFs, spec has %d", l, len(le.Nodes), spec.Width())
		}
		if len(le.InterPaths) != spec.Width() {
			return fmt.Errorf("core: layer %d has %d inter-layer paths, want %d", l, len(le.InterPaths), spec.Width())
		}
		// Assignment hosting (eq. 4 plus the V_i membership of eq. 5/6).
		for i, node := range le.Nodes {
			if !p.Net.HasVNF(node, spec.VNFs[i]) {
				return fmt.Errorf("core: layer %d: node %d does not host f(%d)", l, node, spec.VNFs[i])
			}
		}
		start := s.endNodeBefore(li, p.Src)
		for i, path := range le.InterPaths {
			if err := path.Validate(g); err != nil {
				return fmt.Errorf("core: layer %d inter-path %d: %w", l, i, err)
			}
			if path.From != start {
				return fmt.Errorf("core: layer %d inter-path %d starts at %d, want %d", l, i, path.From, start)
			}
			if to := path.To(g); to != le.Nodes[i] {
				return fmt.Errorf("core: layer %d inter-path %d ends at %d, want %d", l, i, to, le.Nodes[i])
			}
		}
		if spec.Parallel() {
			if !p.Net.HasVNF(le.MergerNode, merger) {
				return fmt.Errorf("core: layer %d: node %d does not host the merger", l, le.MergerNode)
			}
			if len(le.InnerPaths) != spec.Width() {
				return fmt.Errorf("core: layer %d has %d inner-layer paths, want %d", l, len(le.InnerPaths), spec.Width())
			}
			for i, path := range le.InnerPaths {
				if err := path.Validate(g); err != nil {
					return fmt.Errorf("core: layer %d inner-path %d: %w", l, i, err)
				}
				if path.From != le.Nodes[i] {
					return fmt.Errorf("core: layer %d inner-path %d starts at %d, want %d", l, i, path.From, le.Nodes[i])
				}
				if to := path.To(g); to != le.MergerNode {
					return fmt.Errorf("core: layer %d inner-path %d ends at %d, want merger node %d", l, i, to, le.MergerNode)
				}
			}
		} else {
			if len(le.InnerPaths) != 0 {
				return fmt.Errorf("core: layer %d is single-VNF but has inner-layer paths", l)
			}
			if le.MergerNode != le.Nodes[0] {
				return fmt.Errorf("core: layer %d is single-VNF; MergerNode %d must equal the VNF node %d",
					l, le.MergerNode, le.Nodes[0])
			}
		}
	}
	// Tail path closes the chain at the destination.
	if err := s.TailPath.Validate(g); err != nil {
		return fmt.Errorf("core: tail path: %w", err)
	}
	wantFrom := s.endNodeBefore(len(s.Layers), p.Src)
	if s.TailPath.From != wantFrom {
		return fmt.Errorf("core: tail path starts at %d, want layer-ω end node %d", s.TailPath.From, wantFrom)
	}
	if to := s.TailPath.To(g); to != p.Dst {
		return fmt.Errorf("core: tail path ends at %d, want destination %d", to, p.Dst)
	}

	return nil
}

// CheckCapacity checks the capacity constraints (eqs. 2–3) of a placement
// with usage u against the problem's ledger: every instance and every link
// must have residual for its reuse count times the flow rate. u must come
// from Evaluate, ComputeCost or an embedding Result for this problem's
// network and SFC.
func CheckCapacity(p *Problem, u Usage) error {
	return checkCapacity(p.ledgerOrFresh(), p.Rate, u)
}

func checkCapacity(ledger *network.Ledger, rate float64, u Usage) error {
	for _, iu := range u.Instances {
		demand := float64(iu.Count) * rate
		if ledger.InstanceResidual(iu.Node, iu.VNF) < demand-network.CapacityEps {
			return fmt.Errorf("core: instance f(%d) on node %d over capacity: need %v, residual %v",
				iu.VNF, iu.Node, demand, ledger.InstanceResidual(iu.Node, iu.VNF))
		}
	}
	for _, eu := range u.Edges {
		demand := float64(eu.Count) * rate
		if ledger.EdgeResidual(eu.Edge) < demand-network.CapacityEps {
			return fmt.Errorf("core: link %d over capacity: need %v, residual %v", eu.Edge, demand, ledger.EdgeResidual(eu.Edge))
		}
	}
	return nil
}

// Commit reserves a validated solution's capacity demands on the problem's
// ledger, so subsequent embeddings see the depleted real-time network. It
// validates first and reserves atomically: on any failure nothing is
// committed.
func Commit(p *Problem, s *Solution) (CostBreakdown, error) {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.evaluate(p, s)
	if err != nil {
		return CostBreakdown{}, err
	}
	if err := Reserve(p, cb.Usage); err != nil {
		return CostBreakdown{}, err
	}
	cb.Usage = cb.Usage.clone()
	return cb, nil
}

// Reserve is the ledger half of Commit for a placement whose usage is
// already known: it checks the capacity constraints against the problem's
// ledger (installing an empty one if the problem has none) and reserves
// rate × reuse count on every instance and link, atomically — on any
// failure nothing stays reserved.
func Reserve(p *Problem, u Usage) error {
	if err := CheckCapacity(p, u); err != nil {
		return err
	}
	ledger := p.ledger()
	// CheckCapacity just proved feasibility against this ledger, so the
	// reservations below cannot fail; guard anyway and roll back.
	for i, iu := range u.Instances {
		if err := ledger.ReserveInstance(iu.Node, iu.VNF, float64(iu.Count)*p.Rate); err != nil {
			release(ledger, p.Rate, Usage{Instances: u.Instances[:i]})
			return err
		}
	}
	for i, eu := range u.Edges {
		if err := ledger.ReserveEdge(eu.Edge, float64(eu.Count)*p.Rate); err != nil {
			release(ledger, p.Rate, Usage{Instances: u.Instances, Edges: u.Edges[:i]})
			return err
		}
	}
	return nil
}

// Release returns a previously committed solution's capacity to the
// problem's ledger — a flow departing in an online scenario. It is the
// exact inverse of Commit: the same reuse counts are recomputed and
// released. Releasing a solution that was never committed under-counts
// the ledger; the caller owns that pairing.
func Release(p *Problem, s *Solution) error {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.price(p, s)
	if err != nil {
		return err
	}
	// Releasing against a Problem with no ledger is a no-op (there is
	// nothing committed to return); use the read-only view so p is not
	// mutated.
	release(p.ledgerOrFresh(), p.Rate, cb.Usage)
	return nil
}

func release(ledger *network.Ledger, rate float64, u Usage) {
	for _, iu := range u.Instances {
		ledger.ReleaseInstance(iu.Node, iu.VNF, float64(iu.Count)*rate)
	}
	for _, eu := range u.Edges {
		ledger.ReleaseEdge(eu.Edge, float64(eu.Count)*rate)
	}
}
