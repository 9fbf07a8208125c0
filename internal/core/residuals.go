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
	// the nodes, nodes the row stride. Only the rows of the run's categories
	// are read off the ledger; the others hold whatever the storage held.
	inst  []float64
	nodes int
	// edge is network.Ledger.EdgeResiduals.
	edge []float64
}

// readResiduals fills the edge row and the instance rows of cats (every
// category's, none given) from ledger into the given storage.
func readResiduals(ledger *network.Ledger, inst, edge []float64, cats ...network.VNFID) residuals {
	return residuals{
		inst:  ledger.InstanceResiduals(inst, cats...),
		nodes: ledger.Network().G.NumNodes(),
		edge:  ledger.EdgeResiduals(edge),
	}
}

// instance is the residual capacity of category vnf on node, zero where the
// node does not host it.
func (r *residuals) instance(node graph.NodeID, vnf network.VNFID) float64 {
	return r.inst[int(vnf)*r.nodes+int(node)]
}
