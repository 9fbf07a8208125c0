package sfc

import (
	"fmt"

	"dagsfc/internal/network"
)

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

// DAG is a generic dependency graph over SFC positions: Nodes[i] is the VNF
// category at position i, and each edge (a,b) requires position a to finish
// before position b starts. It is the input form for consumers whose
// orchestration is already a DAG rather than a chain.
type DAG struct {
	Nodes []network.VNFID
	Edges [][2]int
}

// Levelize converts the dependency DAG into the standardized layered
// DAG-SFC by longest-path leveling: each position is placed at layer
// 1 + max(layer of its predecessors), so every dependency crosses layers
// in the forward direction. It returns an error if the graph has a cycle
// or references positions out of range.
//
// Positions that land in the same layer carry no ordering constraint
// between them, matching the paper's definition of a parallel VNF set.
// Duplicate categories forced into one layer are split into extra layers,
// because a parallel VNF set is a set.
func (d DAG) Levelize() (DAGSFC, error) {
	n := len(d.Nodes)
	indeg := make([]int, n)
	succ := make([][]int, n)
	for _, e := range d.Edges {
		a, b := e[0], e[1]
		if a < 0 || a >= n || b < 0 || b >= n {
			return DAGSFC{}, fmt.Errorf("sfc: dag edge (%d,%d) out of range [0,%d)", a, b, n)
		}
		if a == b {
			return DAGSFC{}, fmt.Errorf("sfc: dag self-dependency at position %d", a)
		}
		succ[a] = append(succ[a], b)
		indeg[b]++
	}
	// Kahn's algorithm with longest-path levels.
	level := make([]int, n)
	var queue []int
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	processed := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		processed++
		for _, w := range succ[v] {
			if level[v]+1 > level[w] {
				level[w] = level[v] + 1
			}
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if processed != n {
		return DAGSFC{}, fmt.Errorf("sfc: dependency graph has a cycle")
	}
	maxLevel := -1
	for _, l := range level {
		if l > maxLevel {
			maxLevel = l
		}
	}
	var s DAGSFC
	for l := 0; l <= maxLevel; l++ {
		var members []network.VNFID
		seen := map[network.VNFID]bool{}
		var overflow []network.VNFID
		for v := 0; v < n; v++ {
			if level[v] != l {
				continue
			}
			if seen[d.Nodes[v]] {
				overflow = append(overflow, d.Nodes[v])
				continue
			}
			seen[d.Nodes[v]] = true
			members = append(members, d.Nodes[v])
		}
		if len(members) > 0 {
			s.Layers = append(s.Layers, Layer{VNFs: members})
		}
		// Duplicates of a category within one level become their own
		// serial layers right after.
		for _, f := range overflow {
			s.Layers = append(s.Layers, Layer{VNFs: []network.VNFID{f}})
		}
	}
	return s, nil
}
