package core

import (
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// residuals is a run's dense reading of its ledger, taken once: the ledger
// is read-only while an embed runs, so every availability test and capacity
// screen of the search is an indexed read of these rows instead of a hashed
// ledger query. Each entry is bitwise
// the ledger's scalar answer, so no comparison can disagree with Validate's.
type residuals struct {
	// inst is network.Ledger.InstanceResiduals: one row per category over
	// the nodes, nodes the row stride.
	inst  []float64
	nodes int
	// edge is network.Ledger.EdgeResiduals.
	edge []float64
}

// readResiduals fills both rows from ledger into the given storage.
func readResiduals(ledger *network.Ledger, inst, edge []float64) residuals {
	return residuals{
		inst:  ledger.InstanceResiduals(inst),
		nodes: ledger.Network().G.NumNodes(),
		edge:  ledger.EdgeResiduals(edge),
	}
}

// instance is the residual capacity of category vnf on node, zero where the
// node does not host it.
func (r *residuals) instance(node graph.NodeID, vnf network.VNFID) float64 {
	return r.inst[int(vnf)*r.nodes+int(node)]
}
