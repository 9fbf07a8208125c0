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
	_, err := Price(p, s)
	return err
}

// Price is Validate that also returns the objective of eq. (1): the one
// call that checks and prices a finished placement, its reuse counts kept
// in pooled scratch. An embedder that builds a placement without core's
// search ends with it.
func Price(p *Problem, s *Solution) (Cost, error) {
	return validate(p, nil, s)
}

// validate is Validate against ledger (the problem's own when nil),
// returning the objective: the reuse counts stay in pooled scratch.
func validate(p *Problem, ledger *network.Ledger, s *Solution) (Cost, error) {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.evaluate(p, s)
	if err != nil {
		return Cost{}, err
	}
	if ledger == nil {
		ledger = p.LedgerOrFresh()
	}
	return cb.Cost, checkCapacity(ledger, p.Rate, cb.Usage)
}

// Evaluate is Price without the capacity check: it checks completeness
// (eqs. 4–6) and returns the objective, the reuse counts kept in pooled
// scratch. Everything it reads is immutable, so it can run on any goroutine
// at any time; capacity is left to the commit, which refuses a placement
// built on a stale snapshot as a conflict.
func Evaluate(p *Problem, s *Solution) (Cost, error) {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.evaluate(p, s)
	return cb.Cost, err
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

// checkCapacity checks the capacity constraints (eqs. 2–3) of a placement
// with usage u against ledger: every instance and every link must have
// residual for its reuse count times the flow rate.
func checkCapacity(ledger *network.Ledger, rate float64, u Usage) error {
	for _, iu := range u.Instances {
		demand := float64(iu.Count) * rate
		if ledger.InstanceResidual(iu.Node, iu.VNF) < demand {
			return fmt.Errorf("core: instance f(%d) on node %d over capacity: need %v, residual %v",
				iu.VNF, iu.Node, demand, ledger.InstanceResidual(iu.Node, iu.VNF))
		}
	}
	for _, eu := range u.Edges {
		demand := float64(eu.Count) * rate
		if ledger.EdgeResidual(eu.Edge) < demand {
			return fmt.Errorf("core: link %d over capacity: need %v, residual %v", eu.Edge, demand, ledger.EdgeResidual(eu.Edge))
		}
	}
	return nil
}

// Commit reserves a validated solution's capacity demands on the problem's
// ledger, so subsequent embeddings see the depleted real-time network, and
// returns the solution's objective. It validates first and reserves
// atomically: on any failure nothing is committed. The reuse counts it
// reserves are tallied in pooled scratch and kept by nobody; Release
// recomputes them.
func Commit(p *Problem, s *Solution) (Cost, error) {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.evaluate(p, s)
	if err == nil {
		err = reserve(p, cb.Usage)
	}
	if err != nil {
		return Cost{}, err
	}
	return cb.Cost, nil
}

// reserve is the ledger half of Commit: it checks the capacity constraints
// against the problem's ledger and reserves rate × reuse count on every
// instance and link, atomically — on any failure nothing stays reserved. A
// problem without a ledger gets one empty ledger, checked against, reserved
// on and installed only once the reservation stands.
func reserve(p *Problem, u Usage) error {
	ledger := p.LedgerOrFresh()
	if err := checkCapacity(ledger, p.Rate, u); err != nil {
		return err
	}
	// checkCapacity just proved feasibility against this ledger, so the
	// reservations below cannot fail; guard anyway and roll back, a release
	// of exactly what was just reserved, which cannot fail either.
	for i, iu := range u.Instances {
		if err := ledger.ReserveInstance(iu.Node, iu.VNF, float64(iu.Count)*p.Rate); err != nil {
			_ = release(ledger, p.Rate, Usage{Instances: u.Instances[:i]})
			return err
		}
	}
	for i, eu := range u.Edges {
		if err := ledger.ReserveEdge(eu.Edge, float64(eu.Count)*p.Rate); err != nil {
			_ = release(ledger, p.Rate, Usage{Instances: u.Instances, Edges: u.Edges[:i]})
			return err
		}
	}
	if p.Ledger == nil {
		p.Ledger = ledger
	}
	return nil
}

// Release returns a previously committed solution's capacity to the
// problem's ledger — a flow departing in an online scenario. It is the
// exact inverse of Commit: the same reuse counts are recomputed and
// released, all or none. Releasing more than the ledger holds — a solution
// that was never committed — is refused and changes nothing.
func Release(p *Problem, s *Solution) error {
	sc := costScratchPool.Get().(*costScratch)
	defer costScratchPool.Put(sc)
	cb, err := sc.price(p, s)
	if err != nil {
		return err
	}
	// Releasing against a Problem with no ledger finds nothing committed;
	// use the read-only view so p is not mutated.
	return release(p.LedgerOrFresh(), p.Rate, cb.Usage)
}

// release returns u's reservations at rate to ledger, all or none: every
// amount is checked against what its instance or link holds before any
// moves, so a refused release leaves the ledger as it was.
func release(ledger *network.Ledger, rate float64, u Usage) error {
	for _, iu := range u.Instances {
		if ledger.InstanceUsed(iu.Node, iu.VNF) < float64(iu.Count)*rate {
			return fmt.Errorf("core: instance f(%d) on node %d holds less than the %v released", iu.VNF, iu.Node, float64(iu.Count)*rate)
		}
	}
	for _, eu := range u.Edges {
		if ledger.EdgeUsed(eu.Edge) < float64(eu.Count)*rate {
			return fmt.Errorf("core: link %d carries less than the %v released", eu.Edge, float64(eu.Count)*rate)
		}
	}
	for _, iu := range u.Instances {
		if err := ledger.ReleaseInstance(iu.Node, iu.VNF, float64(iu.Count)*rate); err != nil {
			return err
		}
	}
	for _, eu := range u.Edges {
		if err := ledger.ReleaseEdge(eu.Edge, float64(eu.Count)*rate); err != nil {
			return err
		}
	}
	return nil
}
