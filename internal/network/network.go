// Package network models the paper's target cloud network (§3.2): a priced,
// capacitated graph of geo-dispersed cloud nodes on which third-party
// providers deploy VNF instances. It adds the VNF catalog (regular
// categories f(1)..f(n), the dummy f(0) and the merger f(n+1)), per-node
// instance rows with rental prices and processing capacities — the one
// record of which node hosts what — and a residual-capacity ledger that
// provides the "real-time network graph" view used by Algorithm 1.
package network

import (
	"fmt"
	"math"
	"slices"

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

// Instance is a rentable VNF deployment f_v(i) on a node: a rental price
// c_{v,f(i)} per unit of traffic rate and a processing capacity r_{v,f(i)}.
type Instance struct {
	Node     graph.NodeID
	VNF      VNFID
	Price    float64
	Capacity float64
}

// Network is the target network: the priced graph plus the VNF deployment.
//
// The deployment is stored the way the search reads it: one row per
// category f(0)..f(N+1) over the nodes, category-major in two flat arrays,
// so a price or a capacity is one indexed read (and the ledger's residual
// rows, InstanceResiduals, share the layout). The rows are the only index:
// V_i is category i's row, F_v is node v's column. The node count and the
// catalog are fixed when New sizes the rows.
type Network struct {
	G       *graph.Graph
	Catalog Catalog

	// price[f*nodes+v] is c_{v,f(f)}, +Inf where node v does not host the
	// category; capacity[f*nodes+v] is r_{v,f(f)}, zero there. The dummy's
	// row is free and infinite.
	price, capacity []float64
	nodes           int
	rents           [][]float64 // price, one window per category
	minRent         []float64   // each window's minimum
	maxRent         float64     // the dearest instance's price
	count           int         // deployed instances
}

// New returns a network over g with the given catalog and no instances.
func New(g *graph.Graph, catalog Catalog) *Network {
	nodes, rows := g.NumNodes(), max(catalog.N, 0)+2
	n := &Network{
		G:        g,
		Catalog:  catalog,
		price:    make([]float64, rows*nodes),
		capacity: make([]float64, rows*nodes),
		nodes:    nodes,
		rents:    make([][]float64, rows),
		minRent:  make([]float64, rows),
	}
	for i := range n.price {
		if i < nodes {
			n.capacity[i] = graph.Inf // the dummy's row
		} else {
			n.price[i] = graph.Inf
		}
	}
	for f := range n.rents {
		n.rents[f] = n.price[f*nodes : (f+1)*nodes : (f+1)*nodes]
		n.minRent[f] = graph.Inf
	}
	if nodes > 0 {
		n.minRent[Dummy] = 0
	}
	return n
}

// slot returns the position of (node, vnf) in the deployment rows, or false
// when the node or the category lies outside them.
func (n *Network) slot(node graph.NodeID, vnf VNFID) (int, bool) {
	if node < 0 || int(node) >= n.nodes || vnf < 0 || int(vnf) >= len(n.rents) {
		return 0, false
	}
	return int(vnf)*n.nodes + int(node), true
}

// deployed is slot for the pairs that hold an instance — the dummy's row
// included, which every node hosts.
func (n *Network) deployed(node graph.NodeID, vnf VNFID) (int, bool) {
	i, ok := n.slot(node, vnf)
	return i, ok && n.price[i] < graph.Inf
}

// AddInstance deploys category vnf on node with the given price and
// capacity. At most one instance per (node, category) pair may exist; the
// dummy VNF cannot be deployed (it is implicit everywhere). The price must
// be finite: +Inf is how the rows say "not deployed". The capacity must be
// on the grid (graph.OnGrid).
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
	if !(price >= 0) || math.IsInf(price, 1) {
		return fmt.Errorf("network: price %v for VNF %d on node %d must be finite and non-negative", price, vnf, node)
	}
	if !graph.OnGrid(capacity) {
		return fmt.Errorf("network: capacity %v for VNF %d on node %d is not a multiple of 2⁻²⁰ in [0, 2³²]", capacity, vnf, node)
	}
	i, ok := n.slot(node, vnf)
	if !ok {
		return fmt.Errorf("network: VNF %d on node %d outside the rows New sized (%d categories, %d nodes)",
			vnf, node, len(n.rents)-2, n.nodes)
	}
	if n.price[i] < graph.Inf {
		return fmt.Errorf("network: VNF %d already deployed on node %d", vnf, node)
	}
	n.price[i], n.capacity[i] = price, capacity
	n.minRent[vnf] = min(n.minRent[vnf], price)
	n.maxRent = max(n.maxRent, price)
	n.count++
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
	i, ok := n.deployed(node, vnf)
	if !ok {
		return Instance{}, false
	}
	return Instance{Node: node, VNF: vnf, Price: n.price[i], Capacity: n.capacity[i]}, true
}

// HasVNF reports whether node hosts category vnf.
func (n *Network) HasVNF(node graph.NodeID, vnf VNFID) bool {
	_, ok := n.Instance(node, vnf)
	return ok
}

// Rents returns category vnf's rental prices as one dense row over the
// nodes: c_{v,vnf} where node v hosts the category, +Inf elsewhere (zero
// everywhere for the dummy); its finite entries are V_i, ascending by node.
// It is the network's own row, kept by AddInstance — residual capacity is
// not part of it; ask the ledger. The caller must not modify the returned
// slice. A category outside the catalog has no row (nil).
func (n *Network) Rents(vnf VNFID) []float64 {
	if vnf < 0 || int(vnf) >= len(n.rents) {
		return nil
	}
	return n.rents[vnf]
}

// MinRent returns the least rental price of category vnf over all nodes:
// +Inf when nothing hosts it (or the catalog lacks it), zero for the dummy.
func (n *Network) MinRent(vnf VNFID) float64 {
	if vnf < 0 || int(vnf) >= len(n.minRent) {
		return graph.Inf
	}
	return n.minRent[vnf]
}

// MaxRent returns the dearest rental price of any deployed instance (0 with
// none).
func (n *Network) MaxRent() float64 { return n.maxRent }

// VNFsAt returns F_v: the categories deployed on node, ascending — the
// merger among them, the implicit dummy never. A node outside the network
// hosts none (nil).
func (n *Network) VNFsAt(node graph.NodeID) []VNFID {
	var out []VNFID
	for f := VNFID(1); int(f) < len(n.rents); f++ {
		if _, ok := n.deployed(node, f); ok {
			out = append(slices.Grow(out, len(n.rents)-int(f)), f) // one allocation per node
		}
	}
	return out
}

// NumInstances reports the number of deployed instances.
func (n *Network) NumInstances() int { return n.count }

// Instances calls fn for every deployed instance, category by category and
// within one by node.
func (n *Network) Instances(fn func(Instance)) {
	for i := n.nodes; i < len(n.price); i++ {
		if price := n.price[i]; price < graph.Inf {
			fn(Instance{Node: graph.NodeID(i % n.nodes), VNF: VNFID(i / n.nodes), Price: price, Capacity: n.capacity[i]})
		}
	}
}

// AvgVNFPrice reports the mean rental price over all deployed instances of
// regular categories (used by the price-ratio experiment definitions).
func (n *Network) AvgVNFPrice() float64 {
	var sum float64
	var count int
	n.Instances(func(inst Instance) {
		if n.Catalog.IsRegular(inst.VNF) {
			sum += inst.Price
			count++
		}
	})
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// AvgLinkPrice reports the mean link price, off the sum the graph keeps.
func (n *Network) AvgLinkPrice() float64 {
	m := n.G.NumEdges()
	if m == 0 {
		return 0
	}
	return n.G.PriceSum() / float64(m)
}
