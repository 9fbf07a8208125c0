package network

import (
	"fmt"

	"dagsfc/internal/graph"
)

// LedgerState is a ledger's committed-usage view in a portable, exactly
// round-trippable form — the snapshot body the durability layer persists.
// Only nonzero entries appear, sorted by ID, so identical states always
// serialize to identical bytes. Quarantined fault capacity is NOT part of
// the state: faults are replayed as events and re-applied on recovery,
// which reconstructs the quarantine table exactly (fault amounts are pure
// functions of the immutable network).
type LedgerState struct {
	Edges     []EdgeUsage     `json:"edges,omitempty"`
	Instances []InstanceUsage `json:"instances,omitempty"`
}

// EdgeUsage is one edge's committed bandwidth.
type EdgeUsage struct {
	Edge graph.EdgeID `json:"edge"`
	Used float64      `json:"used"`
}

// InstanceUsage is one VNF instance's committed processing capacity.
type InstanceUsage struct {
	Node graph.NodeID `json:"node"`
	VNF  VNFID        `json:"vnf"`
	Used float64      `json:"used"`
}

// ExportState captures the ledger's current usage as raw float64 values.
// The values are the ledger's own accumulated sums — no re-derivation — so
// importing them into a fresh ledger reproduces every residual bit-for-bit
// regardless of the commit/release history that produced them.
func (l *Ledger) ExportState() LedgerState {
	var st LedgerState
	for e, u := range l.edgeUsed {
		if u != 0 {
			st.Edges = append(st.Edges, EdgeUsage{Edge: graph.EdgeID(e), Used: u})
		}
	}
	// Node-major over the dense row, so the entries come out sorted by
	// (node, VNF).
	nodes, used := l.net.nodes, l.instUsed
	for node := 0; node < nodes; node++ {
		for i := nodes + node; i < len(used); i += nodes {
			if used[i] != 0 {
				st.Instances = append(st.Instances, InstanceUsage{Node: graph.NodeID(node), VNF: VNFID(i / nodes), Used: used[i]})
			}
		}
	}
	return st
}

// NewLedgerFromState returns a fresh ledger over net holding exactly
// the exported usage — the float-exact inverse of ExportState. Entries
// referencing edges or instances the network does not have are errors
// (the snapshot belongs to a different substrate).
func NewLedgerFromState(net *Network, st LedgerState) (*Ledger, error) {
	l := NewLedger(net)
	for _, e := range st.Edges {
		if int(e.Edge) < 0 || int(e.Edge) >= net.G.NumEdges() {
			return nil, fmt.Errorf("network: state references edge %d of a %d-edge network", e.Edge, net.G.NumEdges())
		}
		l.edgeUsed[e.Edge] = e.Used
	}
	if len(st.Instances) > 0 {
		l.instUsed = make([]float64, len(net.capacity))
	}
	for _, in := range st.Instances {
		i, ok := net.deployed(in.Node, in.VNF)
		if !ok {
			return nil, fmt.Errorf("network: state references missing instance f(%d) on node %d", in.VNF, in.Node)
		}
		l.instUsed[i] = in.Used
	}
	return l, nil
}
