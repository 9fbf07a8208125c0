package network

import (
	"fmt"
	"maps"

	"dagsfc/internal/graph"
)

// This file implements the survivability layer's fault model on the
// capacity ledger. A fault takes substrate capacity out of service by
// QUARANTINING it — the capacity is subtracted from every residual view
// but never from the network definition — so restoring the fault returns
// the ledger to exactly its pre-fault accounting: apply and restore add and
// subtract the same grid amounts (graph.Grain), recomputed from the
// immutable network.
//
// A ledger's quarantine is part of its value: an immutable table that
// ApplyFault/RestoreFault replace on the ledger they are called on alone.
// A copy taken before a fault keeps its pre-fault view; whether a placement
// found on it still fits is decided at commit (flowstate.Apply).

// FaultKind discriminates the substrate fault classes the injector can
// replay.
type FaultKind int

const (
	// FaultLinkDown quarantines a link's entire bandwidth.
	FaultLinkDown FaultKind = iota
	// FaultNodeDown is a hard node failure: every incident link's residual
	// and every hosted instance's is pinned to exactly zero for the fault's
	// duration. Like FaultEdgeDown it moves a count, not a capacity amount.
	FaultNodeDown
	// FaultLinkDegrade quarantines a fraction of a link's bandwidth — a
	// brown-out rather than a black-out.
	FaultLinkDegrade
	// FaultEdgeDown is a hard link failure: the edge's residual is pinned
	// to exactly zero for the fault's duration, independent of committed
	// usage. Unlike FaultLinkDown (which quarantines the capacity amount
	// and can leave a negative residual under over-commitment), the pin is
	// a count.
	FaultEdgeDown
)

// String returns the schedule-syntax name of the kind.
func (k FaultKind) String() string {
	switch k {
	case FaultLinkDown:
		return "link-down"
	case FaultNodeDown:
		return "node-down"
	case FaultLinkDegrade:
		return "link-degrade"
	case FaultEdgeDown:
		return "edge-down"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one substrate fault: the element it hits and, for degradation,
// how much of the capacity it takes.
type Fault struct {
	Kind FaultKind
	// Link is the target of FaultLinkDown, FaultLinkDegrade and
	// FaultEdgeDown.
	Link graph.EdgeID
	// Node is the target of FaultNodeDown.
	Node graph.NodeID
	// Fraction is the share of the link's bandwidth a FaultLinkDegrade
	// quarantines, in (0, 1]; the amount is rounded to the grid
	// (graph.ToGrid), so apply and restore move identical amounts.
	Fraction float64
}

// Validate reports the first structural problem with the fault against net.
func (f Fault) Validate(net *Network) error {
	switch f.Kind {
	case FaultLinkDown, FaultEdgeDown:
		if f.Link < 0 || int(f.Link) >= net.G.NumEdges() {
			return fmt.Errorf("network: fault link %d out of range [0,%d)", f.Link, net.G.NumEdges())
		}
	case FaultNodeDown:
		if f.Node < 0 || int(f.Node) >= net.G.NumNodes() {
			return fmt.Errorf("network: fault node %d out of range [0,%d)", f.Node, net.G.NumNodes())
		}
	case FaultLinkDegrade:
		if f.Link < 0 || int(f.Link) >= net.G.NumEdges() {
			return fmt.Errorf("network: fault link %d out of range [0,%d)", f.Link, net.G.NumEdges())
		}
		if !(f.Fraction > 0 && f.Fraction <= 1) { // NaN too: it could never be restored
			return fmt.Errorf("network: degrade fraction %v outside (0,1]", f.Fraction)
		}
	default:
		return fmt.Errorf("network: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// String renders the fault in the schedule syntax, e.g. "link-down 3" or
// "link-degrade 7 0.5".
func (f Fault) String() string {
	switch f.Kind {
	case FaultLinkDown:
		return fmt.Sprintf("link-down %d", f.Link)
	case FaultNodeDown:
		return fmt.Sprintf("node-down %d", f.Node)
	case FaultLinkDegrade:
		return fmt.Sprintf("link-degrade %d %g", f.Link, f.Fraction)
	case FaultEdgeDown:
		return fmt.Sprintf("edge-down %d", f.Link)
	}
	return fmt.Sprintf("fault(kind=%d)", int(f.Kind))
}

// quarTable is a ledger's quarantine: how much bandwidth each edge
// currently has out of service, plus the down-count per node and the
// hard-failure down-count per edge. A table is never written once a
// ledger points at it; a fault builds a fresh one.
type quarTable struct {
	edge map[graph.EdgeID]float64
	// node counts active FaultNodeDown faults per node. Any positive count
	// pins the node's incident edges and hosted instances to exactly zero.
	node map[graph.NodeID]int
	// down counts active FaultEdgeDown faults per edge. Any positive count
	// pins the edge's residual to exactly zero (see Ledger.EdgeResidual).
	down map[graph.EdgeID]int
}

func (q *quarTable) empty() bool {
	return len(q.edge) == 0 && len(q.node) == 0 && len(q.down) == 0
}

// edgePinned reports whether the residual of edge (with endpoints a, b) is
// hard-pinned to zero: the edge itself is down, or either endpoint node is.
func (q *quarTable) edgePinned(e graph.EdgeID, a, b graph.NodeID) bool {
	return q.down[e] > 0 || q.node[a] > 0 || q.node[b] > 0
}

func cloneQuar(q *quarTable) *quarTable {
	if q == nil {
		return &quarTable{edge: map[graph.EdgeID]float64{}, node: map[graph.NodeID]int{}, down: map[graph.EdgeID]int{}}
	}
	return &quarTable{edge: maps.Clone(q.edge), node: maps.Clone(q.node), down: maps.Clone(q.down)}
}

// adjust adds d to m[k] — a quarantined amount or a down-count — dropping
// the entry at zero and failing, with m unchanged, if it would go negative
// (a restore without a matching apply).
func adjust[K comparable, V int | float64](m map[K]V, k K, d V) error {
	switch v := m[k] + d; {
	case v < 0:
		return fmt.Errorf("network: quarantine of %v would go negative (%v): restore without matching apply", k, v)
	case v == 0:
		delete(m, k)
	default:
		m[k] = v
	}
	return nil
}

// ApplyFault quarantines the capacity f takes out of service on l alone:
// copies taken of l before it keep their view, copies taken after carry
// the fault. Like every mutation it must be serialized with l's readers.
func (l *Ledger) ApplyFault(f Fault) error {
	return l.adjustFault(f, +1)
}

// RestoreFault returns f's quarantined capacity to service. It must pair
// with an earlier ApplyFault of the same fault value; an unmatched restore
// fails without changing anything. After every applied fault is restored,
// residuals are exactly what they were before the faults.
func (l *Ledger) RestoreFault(f Fault) error {
	return l.adjustFault(f, -1)
}

func (l *Ledger) adjustFault(f Fault, sign float64) error {
	if err := f.Validate(l.net); err != nil {
		return err
	}
	q := cloneQuar(l.quar)
	var err error
	switch f.Kind {
	case FaultLinkDown:
		err = adjust(q.edge, f.Link, sign*l.net.G.Edge(f.Link).Capacity)
	case FaultLinkDegrade:
		err = adjust(q.edge, f.Link, sign*graph.ToGrid(f.Fraction*l.net.G.Edge(f.Link).Capacity))
	case FaultNodeDown:
		// A pure pin, like FaultEdgeDown below: only a count moves.
		err = adjust(q.node, f.Node, int(sign))
	case FaultEdgeDown:
		err = adjust(q.down, f.Link, int(sign))
	}
	if err != nil {
		return err
	}
	if q.empty() {
		q = nil
	}
	l.quar = q
	l.muts++
	return nil
}
