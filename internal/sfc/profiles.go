package sfc

import "dagsfc/internal/network"

// Stock network function categories used by the examples and the
// motivation-level experiments. The IDs are catalog positions f(1)..f(8);
// build networks for them with network.Catalog{N: int(TrafficShaper)}.
const (
	Firewall      network.VNFID = iota + 1 // filters, may drop
	IDS                                    // intrusion detection: read-only
	NAT                                    // rewrites headers
	LoadBalancer                           // rewrites headers
	Monitor                                // read-only counters
	VPN                                    // rewrites payload (encryption)
	WANOptimizer                           // rewrites payload (compression)
	TrafficShaper                          // read-only scheduling, the last
)

// StockRules returns the action-profile table for the stock categories,
// following the read/write classification NFP and ParaBox report for
// common middleboxes. With these profiles roughly half of the category
// pairs parallelize, in line with NFP's 53.8% measurement.
func StockRules() *RuleTable {
	rt := NewRuleTable()
	rt.Set(Firewall, Action{ReadHeader: true, Drop: true})
	rt.Set(IDS, Action{ReadHeader: true, ReadPayload: true})
	rt.Set(NAT, Action{ReadHeader: true, WriteHeader: true})
	rt.Set(LoadBalancer, Action{ReadHeader: true, WriteHeader: true})
	rt.Set(Monitor, Action{ReadHeader: true})
	rt.Set(VPN, Action{ReadPayload: true, WritePayload: true})
	rt.Set(WANOptimizer, Action{ReadPayload: true, WritePayload: true})
	rt.Set(TrafficShaper, Action{ReadHeader: true})
	return rt
}
