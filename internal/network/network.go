// Package network models the paper's target cloud network (§3.2): a priced,
// capacitated graph of geo-dispersed cloud nodes on which third-party
// providers deploy VNF instances. It adds the VNF catalog (regular
// categories f(1)..f(n), the dummy f(0) and the merger f(n+1)), per-node
// instance tables with rental prices and processing capacities, the V_i
// node indices, and a residual-capacity ledger that provides the
// "real-time network graph" view used by Algorithm 1.
package network

import (
	"fmt"
	"sort"
	"sync/atomic"

	"dagsfc/internal/graph"
)

// VNFID identifies a VNF category. 0 is the dummy VNF f(0); 1..N are the
// regular categories f(1)..f(N); N+1 is the merger f(N+1).
type VNFID int

// Dummy is the dummy VNF f(0) assigned to the source/destination layers of
// the stretched SFC S+ (§3.3.2). It is free and is hosted implicitly by
// every node.
const Dummy VNFID = 0

// Catalog describes the VNF categories offered in the network.
type Catalog struct {
	// N is the number of regular VNF categories f(1)..f(N).
	N int
}

// Merger returns the ID of the merger pseudo-VNF f(N+1) that integrates the
// intermediate results of a parallel VNF set.
func (c Catalog) Merger() VNFID { return VNFID(c.N + 1) }

// IsRegular reports whether id is one of f(1)..f(N).
func (c Catalog) IsRegular(id VNFID) bool { return id >= 1 && int(id) <= c.N }

// Valid reports whether id is any category known to the catalog, including
// the dummy and the merger.
func (c Catalog) Valid(id VNFID) bool { return id >= 0 && int(id) <= c.N+1 }

// Regulars returns f(1)..f(N) in order.
func (c Catalog) Regulars() []VNFID {
	out := make([]VNFID, c.N)
	for i := range out {
		out[i] = VNFID(i + 1)
	}
	return out
}

// Instance is a rentable VNF deployment f_v(i) on a node: a rental price
// c_{v,f(i)} per unit of traffic rate and a processing capacity r_{v,f(i)}.
type Instance struct {
	Node     graph.NodeID
	VNF      VNFID
	Price    float64
	Capacity float64
}

type instKey struct {
	node graph.NodeID
	vnf  VNFID
}

// Network is the target network: the priced graph plus the VNF deployment.
//
// Network must not be copied by value after first use (it caches the dense
// rent rows behind an atomic pointer, like Graph's CSR view); use Clone.
type Network struct {
	G       *graph.Graph
	Catalog Catalog

	instances map[instKey]*Instance
	byVNF     map[VNFID][]graph.NodeID // V_i, in insertion order
	byNode    map[graph.NodeID][]VNFID // F_v, in insertion order
	rents     atomic.Pointer[rentTable]
}

// rentTable is the dense form of the deployment's rental prices: one row
// per category over the nodes, and each row's minimum.
type rentTable struct {
	rows [][]float64
	min  []float64
}

// New returns a network over g with the given catalog and no instances.
func New(g *graph.Graph, catalog Catalog) *Network {
	return &Network{
		G:         g,
		Catalog:   catalog,
		instances: make(map[instKey]*Instance),
		byVNF:     make(map[VNFID][]graph.NodeID),
		byNode:    make(map[graph.NodeID][]VNFID),
	}
}

// AddInstance deploys category vnf on node with the given price and
// capacity. At most one instance per (node, category) pair may exist; the
// dummy VNF cannot be deployed (it is implicit everywhere).
func (n *Network) AddInstance(node graph.NodeID, vnf VNFID, price, capacity float64) error {
	if node < 0 || int(node) >= n.G.NumNodes() {
		return fmt.Errorf("network: node %d out of range", node)
	}
	if vnf == Dummy {
		return fmt.Errorf("network: the dummy VNF cannot be deployed explicitly")
	}
	if !n.Catalog.Valid(vnf) {
		return fmt.Errorf("network: VNF %d outside catalog (N=%d)", vnf, n.Catalog.N)
	}
	if price < 0 || capacity < 0 {
		return fmt.Errorf("network: negative price/capacity for VNF %d on node %d", vnf, node)
	}
	key := instKey{node, vnf}
	if _, dup := n.instances[key]; dup {
		return fmt.Errorf("network: VNF %d already deployed on node %d", vnf, node)
	}
	n.instances[key] = &Instance{Node: node, VNF: vnf, Price: price, Capacity: capacity}
	n.byVNF[vnf] = append(n.byVNF[vnf], node)
	n.byNode[node] = append(n.byNode[node], vnf)
	n.rents.Store(nil) // deployment changed; any cached rent rows are stale
	return nil
}

// MustAddInstance is AddInstance that panics on error.
func (n *Network) MustAddInstance(node graph.NodeID, vnf VNFID, price, capacity float64) {
	if err := n.AddInstance(node, vnf, price, capacity); err != nil {
		panic(err)
	}
}

// Instance returns the deployment of vnf on node, if any. The dummy VNF is
// reported as a free, infinite-capacity instance on every node.
func (n *Network) Instance(node graph.NodeID, vnf VNFID) (Instance, bool) {
	if vnf == Dummy {
		if node < 0 || int(node) >= n.G.NumNodes() {
			return Instance{}, false
		}
		return Instance{Node: node, VNF: Dummy, Price: 0, Capacity: graph.Inf}, true
	}
	inst, ok := n.instances[instKey{node, vnf}]
	if !ok {
		return Instance{}, false
	}
	return *inst, true
}

// HasVNF reports whether node hosts category vnf.
func (n *Network) HasVNF(node graph.NodeID, vnf VNFID) bool {
	_, ok := n.Instance(node, vnf)
	return ok
}

// NodesWith returns V_i: every node hosting category vnf, in deployment
// order. The caller must not modify the returned slice.
func (n *Network) NodesWith(vnf VNFID) []graph.NodeID { return n.byVNF[vnf] }

// Rents returns category vnf's rental prices as one dense row over the
// nodes: c_{v,vnf} where node v hosts the category, +Inf elsewhere (zero
// everywhere for the dummy). Prices never change once deployed, so the
// rows are built on first use and cached until the next AddInstance —
// residual capacity is not part of them; ask the ledger. The caller must
// not modify the returned slice. Concurrent readers are safe as long as no
// instance is being added, matching every other accessor.
func (n *Network) Rents(vnf VNFID) []float64 { return n.denseRents().rows[vnf] }

// MinRent returns the least rental price of category vnf over all nodes:
// +Inf when nothing hosts it, zero for the dummy. Cached with Rents.
func (n *Network) MinRent(vnf VNFID) float64 { return n.denseRents().min[vnf] }

func (n *Network) denseRents() *rentTable {
	t := n.rents.Load()
	if t == nil {
		// Concurrent first readers may each build; the contents are
		// identical, so last-store-wins is fine.
		t = n.buildRents()
		n.rents.Store(t)
	}
	return t
}

func (n *Network) buildRents() *rentTable {
	nodes := n.G.NumNodes()
	flat := make([]float64, (n.Catalog.N+2)*nodes)
	for i := nodes; i < len(flat); i++ {
		flat[i] = graph.Inf
	}
	rows := make([][]float64, n.Catalog.N+2)
	for f := range rows {
		rows[f] = flat[f*nodes : (f+1)*nodes : (f+1)*nodes]
	}
	for key, inst := range n.instances {
		rows[key.vnf][key.node] = inst.Price
	}
	mins := make([]float64, len(rows))
	for f, row := range rows {
		mins[f] = graph.Inf
		for _, price := range row {
			mins[f] = min(mins[f], price)
		}
	}
	return &rentTable{rows: rows, min: mins}
}

// VNFsAt returns F_v: the categories hosted on node, sorted ascending.
func (n *Network) VNFsAt(node graph.NodeID) []VNFID {
	out := append([]VNFID(nil), n.byNode[node]...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumInstances reports the number of deployed instances.
func (n *Network) NumInstances() int { return len(n.instances) }

// Instances calls fn for every deployed instance in unspecified order.
func (n *Network) Instances(fn func(Instance)) {
	for _, inst := range n.instances {
		fn(*inst)
	}
}

// AvgVNFPrice reports the mean rental price over all deployed instances of
// regular categories (used by the price-ratio experiment definitions).
func (n *Network) AvgVNFPrice() float64 {
	var sum float64
	var count int
	for _, inst := range n.instances {
		if n.Catalog.IsRegular(inst.VNF) {
			sum += inst.Price
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// AvgLinkPrice reports the mean link price.
func (n *Network) AvgLinkPrice() float64 {
	m := n.G.NumEdges()
	if m == 0 {
		return 0
	}
	var sum float64
	for _, e := range n.G.Edges() {
		sum += e.Price
	}
	return sum / float64(m)
}

// Clone deep-copies the network, sharing nothing with the original. The
// underlying graph is cloned too.
func (n *Network) Clone() *Network {
	c := New(n.G.Clone(), n.Catalog)
	for key, inst := range n.instances {
		cp := *inst
		c.instances[key] = &cp
	}
	for vnf, nodes := range n.byVNF {
		c.byVNF[vnf] = append([]graph.NodeID(nil), nodes...)
	}
	for node, vnfs := range n.byNode {
		c.byNode[node] = append([]VNFID(nil), vnfs...)
	}
	return c
}
