// Quickstart: build a small priced cloud network by hand, embed a hybrid
// SFC with MBBE, and inspect the solution.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"dagsfc"
)

func main() {
	// A six-node metro ring. Prices are per unit of traffic rate;
	// capacities are in rate units. Links are expensive relative to the
	// VNF price differences, so *where* instances sit matters.
	g := dagsfc.NewGraph(6)
	ring := [][2]dagsfc.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}
	for _, e := range ring {
		g.MustAddEdge(e[0], e[1], 10.0, 100)
	}

	// Three VNF categories plus the merger (catalog N+1 = 4). Third-party
	// providers deploy instances at different prices on different nodes:
	// node 1 hosts a slightly pricier copy of everything, while the
	// cheapest copies are scattered around the ring.
	net := dagsfc.NewNetwork(g, dagsfc.Catalog{N: 3})
	net.MustAddInstance(1, 1, 40, 50)
	net.MustAddInstance(4, 1, 35, 50) // cheapest f(1), far away
	net.MustAddInstance(1, 2, 42, 50)
	net.MustAddInstance(5, 2, 38, 50) // cheapest f(2), far away
	net.MustAddInstance(1, 3, 30, 50)
	net.MustAddInstance(2, 3, 26, 50)
	net.MustAddInstance(1, dagsfc.VNFID(4), 6, 50) // merger
	net.MustAddInstance(3, dagsfc.VNFID(4), 5, 50)

	// The hybrid SFC [f1] -> [f2 | f3 +merger]: f(2) and f(3) process the
	// flow in parallel and a merger integrates their results.
	s, err := dagsfc.ParseSFC("1;2,3")
	if err != nil {
		log.Fatal(err)
	}

	p := &dagsfc.Problem{
		Net: net, SFC: s,
		Src: 0, Dst: 2,
		Rate: 1, Size: 1,
	}
	res, err := dagsfc.EmbedMBBE(p)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("SFC:     ", s.String())
	fmt.Println("solution:", res.Solution.String())
	fmt.Printf("cost:     %.1f total = %.1f VNF rental + %.1f links\n",
		res.Cost.Total(), res.Cost.VNFCost, res.Cost.LinkCost)
	for _, u := range res.Cost.Usage.Instances {
		fmt.Printf("  rents f(%d) on node %d (x%d)\n", u.VNF, u.Node, u.Count)
	}

	// Compare against the naive baseline: MINV chases the individually
	// cheapest instances around the ring and pays for it in link cost.
	minv, err := dagsfc.EmbedMINV(&dagsfc.Problem{Net: net, SFC: s, Src: 0, Dst: 2, Rate: 1, Size: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("MINV baseline cost: %.1f (MBBE saves %.0f%%)\n",
		minv.Cost.Total(), 100*(1-res.Cost.Total()/minv.Cost.Total()))
}
