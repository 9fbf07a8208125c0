package network

import (
	"fmt"

	"dagsfc/internal/graph"
)

// Ledger tracks how much bandwidth of every link and how much processing
// capacity of every VNF instance is already committed. It is the
// "real-time network graph G_1" that Algorithm 1 consults: embedding
// algorithms reserve capacity as they commit sub-solutions, and online
// multi-flow scenarios carry one ledger across many requests.
//
// A Ledger is a value: two dense usage rows and its fault quarantine
// (fault.go). A copy (Snapshot, SnapshotInto) has rows and a quarantine of
// its own, so nothing done to one ledger — a reservation, a release, a
// fault — reaches another. The serving layer hands each embed worker such
// a copy; every embed reads the rows whole anyway (EdgeResiduals,
// InstanceResiduals). One ledger's mutations must be serialized by its
// owner; reading a copy needs no lock.
//
// The zero Ledger is not usable except as SnapshotInto's destination;
// create one with NewLedger.
type Ledger struct {
	net *Network
	// edgeUsed holds the committed bandwidth per edge.
	edgeUsed []float64
	// instUsed holds the committed capacity per instance, in the network's
	// row layout; a slot without an instance stays zero. The first
	// reservation allocates it: until then the ledger is empty and a short
	// row reads as all zeros, so the fresh ledger a ledgerless embed runs on
	// costs no instance row.
	instUsed []float64
	// muts counts the ledger's visible mutations (see ViewEpoch).
	muts uint64
	// quar is the active faults' quarantine, nil while there are none. A
	// table is immutable, so copies share it until a fault replaces it.
	quar *quarTable
}

// NewLedger returns an empty ledger over net.
func NewLedger(net *Network) *Ledger {
	return &Ledger{net: net, edgeUsed: make([]float64, net.G.NumEdges())}
}

// Network returns the network the ledger accounts for.
func (l *Ledger) Network() *Network { return l.net }

// ViewEpoch is the ledger's mutation count: it moves on every accepted
// reservation, release, fault and restore and on nothing else, so an
// unchanged epoch means unchanged residuals. A copy starts at its source's
// count. Nothing is keyed on it (shared cost views compare their content
// instead); it remains for benchmark/, as the measure of how often the
// view changes.
func (l *Ledger) ViewEpoch() uint64 { return l.muts }

// Snapshot returns an independent what-if copy of the ledger: the same
// rows, quarantine and epoch, and nothing done to either ledger afterwards
// reaches the other.
func (l *Ledger) Snapshot() *Ledger { return l.SnapshotInto(nil) }

// SnapshotInto is Snapshot into storage the caller already owns: dst, a
// ledger nothing reads any more, is overwritten with l's rows, quarantine
// and epoch and returned; once its rows have reached the network's size it
// allocates nothing. A nil dst gets fresh storage.
func (l *Ledger) SnapshotInto(dst *Ledger) *Ledger {
	if dst == nil {
		dst = new(Ledger)
	}
	dst.net, dst.muts, dst.quar = l.net, l.muts, l.quar
	dst.edgeUsed = append(dst.edgeUsed[:0], l.edgeUsed...)
	dst.instUsed = append(dst.instUsed[:0], l.instUsed...)
	return dst
}

// Overlay returns a Snapshot.
//
// Deprecated: a copy is a Snapshot; the name remains for benchmark/ only.
func (l *Ledger) Overlay() *Ledger { return l.Snapshot() }

// Flatten returns a Snapshot.
//
// Deprecated: a copy is a Snapshot; the name remains for benchmark/ only.
func (l *Ledger) Flatten() *Ledger { return l.Snapshot() }

// OverlayLen returns 0: no ledger reads through another.
//
// Deprecated: the name remains for benchmark/ only.
func (l *Ledger) OverlayLen() int { return 0 }

// EdgeResidual reports the remaining bandwidth of edge e, net of any
// capacity active faults have quarantined. It can be negative while a
// fault holds capacity that committed flows are still using. A hard
// failure — an edge-down fault on e, or a node-down fault on either
// endpoint — pins the residual to exactly zero regardless of usage.
func (l *Ledger) EdgeResidual(e graph.EdgeID) float64 {
	r := l.net.G.Edge(e).Capacity - l.EdgeUsed(e)
	if q := l.quar; q != nil {
		r -= q.edge[e]
		ed := l.net.G.Edge(e)
		if q.edgePinned(e, ed.A, ed.B) {
			return 0
		}
	}
	return r
}

// EdgeUsed reports the committed bandwidth of edge e.
func (l *Ledger) EdgeUsed(e graph.EdgeID) float64 { return l.edgeUsed[e] }

// InstanceResidual reports the remaining processing capacity of the
// instance of vnf on node: exactly zero while the node is down. Missing
// instances have zero residual; the dummy VNF is infinite.
func (l *Ledger) InstanceResidual(node graph.NodeID, vnf VNFID) float64 {
	i, ok := l.net.deployed(node, vnf)
	if !ok {
		return 0
	}
	if q := l.quar; q != nil && q.node[node] > 0 {
		// Hosting node is hard-down: pin to exactly zero.
		return 0
	}
	return l.net.capacity[i] - l.InstanceUsed(node, vnf)
}

// InstanceUsed reports the committed capacity of the instance of vnf on
// node.
func (l *Ledger) InstanceUsed(node graph.NodeID, vnf VNFID) float64 {
	if i, ok := l.net.deployed(node, vnf); ok && i < len(l.instUsed) {
		return l.instUsed[i]
	}
	return 0
}

// ReserveEdge commits amount bandwidth on edge e, failing without side
// effects if the residual is insufficient.
func (l *Ledger) ReserveEdge(e graph.EdgeID, amount float64) error {
	if !(amount >= 0) { // NaN too
		return fmt.Errorf("network: invalid reservation %v on edge %d", amount, e)
	}
	if r := l.EdgeResidual(e); r < amount-CapacityEps {
		return fmt.Errorf("network: edge %d over capacity: residual %v < demand %v", e, r, amount)
	}
	l.edgeUsed[e] += amount
	l.muts++
	return nil
}

// ReleaseEdge returns amount bandwidth to edge e. Usage never drops below
// zero.
func (l *Ledger) ReleaseEdge(e graph.EdgeID, amount float64) {
	l.edgeUsed[e] = max(l.edgeUsed[e]-amount, 0)
	l.muts++
}

// ReserveInstance commits amount processing capacity on the instance of
// vnf at node, failing without side effects if insufficient. Reserving the
// dummy VNF is a no-op.
func (l *Ledger) ReserveInstance(node graph.NodeID, vnf VNFID, amount float64) error {
	if vnf == Dummy {
		return nil
	}
	if !(amount >= 0) { // NaN too
		return fmt.Errorf("network: invalid reservation %v on instance (%d,%d)", amount, node, vnf)
	}
	if r := l.InstanceResidual(node, vnf); r < amount-CapacityEps {
		return fmt.Errorf("network: instance f(%d) on node %d over capacity: residual %v < demand %v",
			vnf, node, r, amount)
	}
	// A slot without an instance stays zero, whatever is asked of it.
	if i, ok := l.net.deployed(node, vnf); ok {
		if len(l.instUsed) == 0 {
			l.instUsed = append(l.instUsed, make([]float64, len(l.net.capacity))...)
		}
		l.instUsed[i] += amount
	}
	l.muts++
	return nil
}

// ReleaseInstance returns amount capacity to the instance of vnf at node.
// Usage never drops below zero, matching ReleaseEdge.
func (l *Ledger) ReleaseInstance(node graph.NodeID, vnf VNFID, amount float64) {
	if vnf == Dummy {
		return
	}
	if i, ok := l.net.deployed(node, vnf); ok && i < len(l.instUsed) {
		l.instUsed[i] = max(l.instUsed[i]-amount, 0)
	}
	l.muts++
}

// EdgeResiduals fills dst with the residual bandwidth of every edge —
// dst[e] bitwise equal to EdgeResidual(e) — growing dst only if it lacks
// capacity, and returns it. One call replaces NumEdges individual queries,
// which is what makes cost-view compilation a dense O(edges) pass. The
// float operations replay EdgeResidual's exact order: usage subtracted
// from capacity, then the quarantine subtracted — so capacity-floor
// comparisons against the result can never disagree with the scalar path.
func (l *Ledger) EdgeResiduals(dst []float64) []float64 {
	ne := l.net.G.NumEdges()
	if cap(dst) < ne {
		dst = make([]float64, ne)
	} else {
		dst = dst[:ne]
	}
	// A ledger sized before later AddEdge calls may track fewer edges than
	// the graph; the extra slots carry zero usage.
	clear(dst[copy(dst, l.edgeUsed):])
	edges := l.net.G.Edges()
	for e := range dst {
		dst[e] = edges[e].Capacity - dst[e]
	}
	if q := l.quar; q != nil {
		for e, amt := range q.edge {
			if int(e) < ne {
				dst[e] -= amt
			}
		}
		// Hard-failure pins last, mirroring the scalar path's early return:
		// both paths store the literal constant 0, so the bitwise contract
		// holds through down faults too.
		for e := range q.down {
			if int(e) < ne {
				dst[e] = 0
			}
		}
		for v := range q.node {
			for _, arc := range l.net.G.Neighbors(v) {
				if int(arc.Edge) < ne {
					dst[arc.Edge] = 0
				}
			}
		}
	}
	return dst
}

// InstanceResiduals is EdgeResiduals for instances: it fills dst with the
// residual capacity of every (category, node) pair in the network's row
// layout — dst[f*nodes+v] bitwise equal to InstanceResidual(v, f), so zero
// where nothing is deployed and +Inf along the dummy's row — growing dst
// only if it lacks capacity, and returns it. One call replaces a hashed
// lookup per query, which is what lets a search read availability as a
// plain index. The float operations replay InstanceResidual's: usage
// subtracted from capacity, node-down pins last.
func (l *Ledger) InstanceResiduals(dst []float64) []float64 {
	capacity, nodes := l.net.capacity, l.net.nodes
	if cap(dst) < len(capacity) {
		dst = make([]float64, len(capacity))
	} else {
		dst = dst[:len(capacity)]
	}
	clear(dst[copy(dst, l.instUsed):])
	for i, c := range capacity {
		dst[i] = c - dst[i]
	}
	if q := l.quar; q != nil {
		for v := range q.node {
			if v >= 0 && int(v) < nodes {
				for i := int(v); i < len(dst); i += nodes {
					dst[i] = 0
				}
			}
		}
	}
	return dst
}

// CostOptions returns graph search options that admit only links with at
// least demand residual bandwidth according to this ledger, which is their
// residual source: a compiled cost view reads every residual in one
// EdgeResiduals call.
func (l *Ledger) CostOptions(demand float64) *graph.CostOptions {
	return &graph.CostOptions{MinCapacity: demand, Residual: l}
}

// CapacityEps absorbs float accumulation error in capacity comparisons: a
// demand fits a residual that falls short of it by no more than this.
const CapacityEps = 1e-9
