package network

import (
	"encoding/json"
	"fmt"
	"io"

	"dagsfc/internal/graph"
)

// fileFormat is the on-disk JSON representation used by the cmd/ tools.
type fileFormat struct {
	Nodes     int          `json:"nodes"`
	VNFKinds  int          `json:"vnf_kinds"`
	Links     []linkFormat `json:"links"`
	Instances []instFormat `json:"instances"`
}

type linkFormat struct {
	A        int     `json:"a"`
	B        int     `json:"b"`
	Price    float64 `json:"price"`
	Capacity float64 `json:"capacity"`
}

type instFormat struct {
	Node     int     `json:"node"`
	VNF      int     `json:"vnf"`
	Price    float64 `json:"price"`
	Capacity float64 `json:"capacity"`
}

// WriteJSON serializes the network (topology, prices, capacities, VNF
// deployment) in a stable, human-diffable order.
func (n *Network) WriteJSON(w io.Writer) error {
	ff := fileFormat{Nodes: n.G.NumNodes(), VNFKinds: n.Catalog.N}
	for _, e := range n.G.Edges() {
		ff.Links = append(ff.Links, linkFormat{A: int(e.A), B: int(e.B), Price: e.Price, Capacity: e.Capacity})
	}
	for v := range n.nodes {
		for _, f := range n.VNFsAt(graph.NodeID(v)) {
			inst, _ := n.Instance(graph.NodeID(v), f)
			ff.Instances = append(ff.Instances, instFormat{Node: v, VNF: int(f), Price: inst.Price, Capacity: inst.Capacity})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ff)
}

// ReadJSON parses a network previously written by WriteJSON.
func ReadJSON(r io.Reader) (*Network, error) {
	var ff fileFormat
	if err := json.NewDecoder(r).Decode(&ff); err != nil {
		return nil, fmt.Errorf("network: decode: %w", err)
	}
	if ff.Nodes < 0 || ff.VNFKinds < 0 {
		return nil, fmt.Errorf("network: negative nodes (%d) or vnf_kinds (%d)", ff.Nodes, ff.VNFKinds)
	}
	g := graph.New(ff.Nodes)
	for i, l := range ff.Links {
		if _, err := g.AddEdge(graph.NodeID(l.A), graph.NodeID(l.B), l.Price, l.Capacity); err != nil {
			return nil, fmt.Errorf("network: link %d: %w", i, err)
		}
	}
	net := New(g, Catalog{N: ff.VNFKinds})
	for i, inst := range ff.Instances {
		if err := net.AddInstance(graph.NodeID(inst.Node), VNFID(inst.VNF), inst.Price, inst.Capacity); err != nil {
			return nil, fmt.Errorf("network: instance %d: %w", i, err)
		}
	}
	return net, nil
}
