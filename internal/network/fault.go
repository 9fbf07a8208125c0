package network

import (
	"fmt"
	"sync/atomic"

	"dagsfc/internal/graph"
)

// This file implements the survivability layer's fault model on the
// capacity ledger. A fault takes substrate capacity out of service by
// QUARANTINING it — the capacity is subtracted from every residual view
// but never from the network definition — so restoring the fault returns
// the ledger to exactly its pre-fault accounting (float-exact, not merely
// approximate: apply and restore add and subtract the same amounts,
// recomputed from the immutable network).
//
// Quarantine belongs to a ledger family — a ledger from NewLedger and every
// copy taken of it — published as an immutable table behind an atomic
// pointer that every member shares, which gives faults the semantics the
// serving layer needs:
//
//   - a speculative embed running on a snapshot taken BEFORE the fault
//     sees the post-fault residuals the moment the fault is applied;
//     whether its placement still fits the live ledger is decided at
//     commit time (flowstate.Check, under the server's state mutex);
//   - readers never lock: ApplyFault/RestoreFault build a fresh table and
//     swap the pointer, so a search iterating residuals mid-fault observes
//     either the old view or the new one, never a half-applied fault.
//
// Mutations (ApplyFault/RestoreFault) must be serialized by the caller —
// the server applies them under its state mutex, the offline harnesses are
// single-threaded.

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
	// a count, so apply/restore is trivially float-exact.
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
	// quarantines, in (0, 1].
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

// quarTable is the published quarantine view: how much bandwidth each edge
// currently has out of service, plus the down-count per node and the
// hard-failure down-count per edge. Tables are immutable after
// publication; mutations copy-and-swap.
type quarTable struct {
	edge map[graph.EdgeID]float64
	// node counts active FaultNodeDown faults per node. Any positive count
	// pins the node's incident edges and hosted instances to exactly zero.
	node map[graph.NodeID]int
	// down counts active FaultEdgeDown faults per edge. Any positive count
	// pins the edge's residual to exactly zero (see Ledger.EdgeResidual).
	down map[graph.EdgeID]int
}

// quarantine is a ledger family's fault state: the published table, and
// the count of faults applied or restored that ViewEpoch adds — a count,
// not a pointer compare, so apply-then-restore (which stores nil again)
// still moves every member's epoch.
type quarantine struct {
	table  atomic.Pointer[quarTable]
	faults atomic.Uint64
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
	c := &quarTable{
		edge: make(map[graph.EdgeID]float64),
		node: make(map[graph.NodeID]int),
		down: make(map[graph.EdgeID]int),
	}
	if q != nil {
		for k, v := range q.edge {
			c.edge[k] = v
		}
		for k, v := range q.node {
			c.node[k] = v
		}
		for k, v := range q.down {
			c.down[k] = v
		}
	}
	return c
}

// addEdge adjusts an edge's quarantined amount, failing if the adjustment
// would drive it negative (a restore without a matching apply).
func (q *quarTable) addEdge(e graph.EdgeID, amt float64) error {
	v := q.edge[e] + amt
	if v < -CapacityEps {
		return fmt.Errorf("network: edge %d quarantine would go negative (%v): restore without matching apply", e, v)
	}
	if v <= CapacityEps {
		delete(q.edge, e)
		return nil
	}
	q.edge[e] = v
	return nil
}

// ApplyFault quarantines the capacity f takes out of service, for every
// member of l's family at once: whichever member it is called on, every
// copy observes the fault immediately. Concurrent readers are safe;
// concurrent mutators are not — serialize Apply/Restore.
func (l *Ledger) ApplyFault(f Fault) error {
	return l.adjustFault(f, +1)
}

// RestoreFault returns f's quarantined capacity to service. It must pair
// with an earlier ApplyFault of the same fault value; an unmatched restore
// fails without changing anything. After every applied fault is restored,
// residuals are float-exactly what they were before the faults.
func (l *Ledger) RestoreFault(f Fault) error {
	return l.adjustFault(f, -1)
}

func (l *Ledger) adjustFault(f Fault, sign float64) error {
	if err := f.Validate(l.net); err != nil {
		return err
	}
	q := cloneQuar(l.fam.table.Load())
	switch f.Kind {
	case FaultLinkDown:
		if err := q.addEdge(f.Link, sign*l.net.G.Edge(f.Link).Capacity); err != nil {
			return err
		}
	case FaultLinkDegrade:
		if err := q.addEdge(f.Link, sign*f.Fraction*l.net.G.Edge(f.Link).Capacity); err != nil {
			return err
		}
	case FaultNodeDown:
		// A pure pin, like FaultEdgeDown below: no capacity amount moves,
		// only a count, so restore is float-exact by construction.
		if n := q.node[f.Node] + int(sign); n < 0 {
			return fmt.Errorf("network: node %d down-count would go negative: restore without matching apply", f.Node)
		} else if n == 0 {
			delete(q.node, f.Node)
		} else {
			q.node[f.Node] = n
		}
	case FaultEdgeDown:
		if n := q.down[f.Link] + int(sign); n < 0 {
			return fmt.Errorf("network: edge %d down-count would go negative: restore without matching apply", f.Link)
		} else if n == 0 {
			delete(q.down, f.Link)
		} else {
			q.down[f.Link] = n
		}
	}
	if q.empty() {
		q = nil
	}
	l.fam.table.Store(q)
	l.fam.faults.Add(1)
	return nil
}
