package sfc

import "dagsfc/internal/network"

// ChainToDAG transforms a sequential service chain into its hybrid DAG-SFC
// form (the procedure of Fig. 2): scan the chain in order and greedily grow
// the current parallel VNF set while the next VNF is pairwise
// parallelizable with every member already in the set; otherwise start a
// new layer. maxWidth bounds the size of a parallel set (the paper's SFC
// generator uses 3); maxWidth <= 0 means unbounded.
//
// The result preserves the chain's ordering constraints: two VNFs end up in
// the same layer only if the rule table says their relative order is
// irrelevant, and cross-layer order follows chain order. The chain is
// copied once and every layer is a window of that one copy (capped, so
// appending to a layer's VNFs never reaches into the next layer); the
// caller keeps chain.
func ChainToDAG(chain []network.VNFID, rules *RuleTable, maxWidth int) DAGSFC {
	if len(chain) == 0 {
		return DAGSFC{}
	}
	vnfs := make([]network.VNFID, len(chain))
	copy(vnfs, chain)
	layers := make([]Layer, 0, len(vnfs))
	start := 0 // the current parallel set is vnfs[start:i]
	for i, f := range vnfs {
		cur := vnfs[start:i]
		fits := len(cur) > 0 && (maxWidth <= 0 || len(cur) < maxWidth)
		if fits {
			for _, g := range cur {
				if !rules.CanParallelize(f, g) {
					fits = false
					break
				}
			}
		}
		if !fits && len(cur) > 0 {
			layers = append(layers, Layer{VNFs: vnfs[start:i:i]})
			start = i
		}
	}
	return DAGSFC{Layers: append(layers, Layer{VNFs: vnfs[start:]})}
}
