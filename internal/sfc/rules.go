package sfc

import "dagsfc/internal/network"

// Action is the packet-handling profile of a VNF category, in the style of
// the order-dependency analysis of NFP (Sun et al., SIGCOMM'17) and ParaBox
// (Zhang et al., SOSR'17) that the paper cites as the source of VNF
// parallelism: two NFs may process the same packet in parallel when
// neither's writes conflict with the other's reads or writes and neither
// may terminate the packet.
type Action struct {
	ReadHeader   bool
	WriteHeader  bool
	ReadPayload  bool
	WritePayload bool
	// Drop marks NFs that may discard or terminate traffic (firewalls,
	// IPSs). A dropper must see the packet strictly before anything that
	// depends on it, so it never parallelizes.
	Drop bool
}

// conflictsWith reports whether running a and b on the same packet copy in
// parallel could produce a result different from running them in sequence.
func (a Action) conflictsWith(b Action) bool {
	if a.Drop || b.Drop {
		return true
	}
	if a.WriteHeader && (b.ReadHeader || b.WriteHeader) {
		return true
	}
	if b.WriteHeader && a.ReadHeader {
		return true
	}
	if a.WritePayload && (b.ReadPayload || b.WritePayload) {
		return true
	}
	if b.WritePayload && a.ReadPayload {
		return true
	}
	return false
}

// RuleTable records the action profile of each VNF category and answers
// pairwise parallelizability queries. The zero value treats every category
// as conservative (read+write everything), i.e. nothing parallelizes.
type RuleTable struct {
	actions map[network.VNFID]Action
}

// NewRuleTable returns an empty table.
func NewRuleTable() *RuleTable {
	return &RuleTable{actions: make(map[network.VNFID]Action)}
}

// Set registers the action profile of a category.
func (rt *RuleTable) Set(v network.VNFID, a Action) {
	if rt.actions == nil {
		rt.actions = make(map[network.VNFID]Action)
	}
	rt.actions[v] = a
}

// ActionOf returns the profile of v; unknown categories default to the
// most conservative profile (reads and writes everything, may drop).
func (rt *RuleTable) ActionOf(v network.VNFID) Action {
	if rt != nil && rt.actions != nil {
		if a, ok := rt.actions[v]; ok {
			return a
		}
	}
	return Action{ReadHeader: true, WriteHeader: true, ReadPayload: true, WritePayload: true, Drop: true}
}

// CanParallelize reports whether categories a and b may process traffic in
// parallel. The relation is symmetric and irreflexive-by-convention: a
// category never parallelizes with itself (the same function twice in a
// chain is sequential state sharing).
func (rt *RuleTable) CanParallelize(a, b network.VNFID) bool {
	if a == b {
		return false
	}
	return !rt.ActionOf(a).conflictsWith(rt.ActionOf(b))
}
