// Package netgen implements the paper's random network generator (§5.1):
// it creates nodes, connects them with a random spanning tree plus extra
// random edges until the target average connectivity is met, deploys each
// VNF category on nodes with the configured deploying ratio, prices VNF
// instances around an average with the configured fluctuation ratio, and
// prices links so the average link price over the average VNF price equals
// the configured price ratio.
package netgen

import (
	"fmt"
	"math/rand"
	"os"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// Config selects the distribution the generator draws from. The paper's
// Table 2 base configuration is returned by Default.
type Config struct {
	// Nodes is the network size (number of nodes).
	Nodes int
	// Connectivity is the target average node degree.
	Connectivity float64
	// VNFKinds is the number of regular VNF categories n.
	VNFKinds int
	// DeployRatio is the probability that a given category is deployed on
	// a given node. Every category is guaranteed at least one deployment.
	DeployRatio float64
	// AvgVNFPrice is the mean rental price of regular VNF instances.
	AvgVNFPrice float64
	// PriceRatio is average link price / average VNF price (the paper's
	// "average price ratio").
	PriceRatio float64
	// VNFPriceFluct is the paper's "VNF price fluctuation ratio": half the
	// max-min price gap over the average price. Prices are drawn uniformly
	// from [avg*(1-f), avg*(1+f)].
	VNFPriceFluct float64
	// LinkPriceFluct is the same fluctuation applied to link prices. Zero
	// means "use VNFPriceFluct".
	LinkPriceFluct float64
	// MergerPriceFactor scales AvgVNFPrice to obtain the average merger
	// rental price. Mergers are deployed with DeployRatio like any
	// category.
	MergerPriceFactor float64
	// LinkCapacity and InstanceCapacity are uniform capacities, ample by
	// default so that the single-flow experiments are price-driven, as in
	// the paper.
	LinkCapacity     float64
	InstanceCapacity float64
}

// Default returns the paper's Table 2 base configuration: 500 nodes,
// connectivity 6, deploy ratio 50%, price ratio 20%, fluctuation 5%.
func Default() Config {
	return Config{
		Nodes:             500,
		Connectivity:      6,
		VNFKinds:          10,
		DeployRatio:       0.50,
		AvgVNFPrice:       100,
		PriceRatio:        0.20,
		VNFPriceFluct:     0.05,
		MergerPriceFactor: 0.25,
		LinkCapacity:      1000,
		InstanceCapacity:  1000,
	}
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Nodes < 2:
		return fmt.Errorf("netgen: need at least 2 nodes, have %d", c.Nodes)
	case c.Connectivity < 0:
		return fmt.Errorf("netgen: negative connectivity %v", c.Connectivity)
	case c.VNFKinds < 1:
		return fmt.Errorf("netgen: need at least 1 VNF kind, have %d", c.VNFKinds)
	case c.DeployRatio <= 0 || c.DeployRatio > 1:
		return fmt.Errorf("netgen: deploy ratio %v outside (0,1]", c.DeployRatio)
	case c.AvgVNFPrice <= 0:
		return fmt.Errorf("netgen: non-positive average VNF price %v", c.AvgVNFPrice)
	case c.PriceRatio < 0:
		return fmt.Errorf("netgen: negative price ratio %v", c.PriceRatio)
	case c.VNFPriceFluct < 0 || c.VNFPriceFluct > 1:
		return fmt.Errorf("netgen: VNF price fluctuation %v outside [0,1]", c.VNFPriceFluct)
	case c.LinkPriceFluct < 0 || c.LinkPriceFluct > 1:
		return fmt.Errorf("netgen: link price fluctuation %v outside [0,1]", c.LinkPriceFluct)
	case c.MergerPriceFactor < 0:
		return fmt.Errorf("netgen: negative merger price factor %v", c.MergerPriceFactor)
	case !(c.LinkCapacity > 0 && graph.OnGrid(c.LinkCapacity) && c.InstanceCapacity > 0 && graph.OnGrid(c.InstanceCapacity)):
		return fmt.Errorf("netgen: capacities must be positive multiples of 2⁻²⁰ no larger than 2³²")
	}
	return nil
}

// Generate draws one random network from the configured distribution.
// Results are deterministic for a given rng state.
func Generate(cfg Config, rng *rand.Rand) (*network.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := graph.New(cfg.Nodes)

	linkFluct := cfg.LinkPriceFluct
	if linkFluct == 0 {
		linkFluct = cfg.VNFPriceFluct
	}
	avgLinkPrice := cfg.PriceRatio * cfg.AvgVNFPrice
	linkPrice := func() float64 { return fluctuate(avgLinkPrice, linkFluct, rng) }

	// linked holds the pairs joined so far: a duplicate costs one lookup.
	linked := map[[2]graph.NodeID]bool{}
	pair := func(a, b graph.NodeID) [2]graph.NodeID { return [2]graph.NodeID{min(a, b), max(a, b)} }

	// Step 1: random spanning tree guarantees connectedness.
	perm := rng.Perm(cfg.Nodes)
	for i := 1; i < cfg.Nodes; i++ {
		a := graph.NodeID(perm[i])
		b := graph.NodeID(perm[rng.Intn(i)])
		linked[pair(a, b)] = true
		g.MustAddEdge(a, b, linkPrice(), cfg.LinkCapacity)
	}

	// Step 2: extra random edges until the average degree target. We avoid
	// duplicating an existing link; in tiny dense configurations the loop
	// may run out of fresh pairs, so bound the attempts.
	targetEdges := int(cfg.Connectivity * float64(cfg.Nodes) / 2)
	attempts := 0
	maxAttempts := 50 * (targetEdges + cfg.Nodes)
	for g.NumEdges() < targetEdges && attempts < maxAttempts {
		attempts++
		a := graph.NodeID(rng.Intn(cfg.Nodes))
		b := graph.NodeID(rng.Intn(cfg.Nodes))
		if a == b || linked[pair(a, b)] {
			continue
		}
		linked[pair(a, b)] = true
		g.MustAddEdge(a, b, linkPrice(), cfg.LinkCapacity)
	}

	// Step 3: deploy VNFs, including the merger category.
	return Populate(g, cfg, rng)
}

// Populate deploys VNF instances (with the configured deploying ratio and
// price distribution) onto an existing topology, returning the resulting
// network. Only the deployment-related fields of cfg are used; topology
// fields (Nodes, Connectivity) are ignored. Every category gets at least
// one instance. Use this to run the paper's workload on other topologies,
// such as those of the robustness experiment in internal/sim.
func Populate(g *graph.Graph, cfg Config, rng *rand.Rand) (*network.Network, error) {
	if g.NumNodes() < 1 {
		return nil, fmt.Errorf("netgen: topology has no nodes")
	}
	probe := cfg
	probe.Nodes = g.NumNodes()
	if probe.Connectivity < 0 {
		probe.Connectivity = 0
	}
	if err := probe.Validate(); err != nil && g.NumNodes() >= 2 {
		return nil, err
	}
	nodes := g.NumNodes()
	net := network.New(g, network.Catalog{N: cfg.VNFKinds})
	deploy := func(f network.VNFID, avgPrice float64) {
		deployed := false
		for v := 0; v < nodes; v++ {
			if rng.Float64() < cfg.DeployRatio {
				net.MustAddInstance(graph.NodeID(v), f, fluctuate(avgPrice, cfg.VNFPriceFluct, rng), cfg.InstanceCapacity)
				deployed = true
			}
		}
		if !deployed {
			v := graph.NodeID(rng.Intn(nodes))
			net.MustAddInstance(v, f, fluctuate(avgPrice, cfg.VNFPriceFluct, rng), cfg.InstanceCapacity)
		}
	}
	for i := 1; i <= cfg.VNFKinds; i++ {
		deploy(network.VNFID(i), cfg.AvgVNFPrice)
	}
	deploy(net.Catalog.Merger(), cfg.MergerPriceFactor*cfg.AvgVNFPrice)
	return net, nil
}

// LinkPricer returns a sampler of link prices under cfg's price ratio and
// fluctuation, for topology builders that create their own edges.
func (c Config) LinkPricer(rng *rand.Rand) func() float64 {
	fluct := c.LinkPriceFluct
	if fluct == 0 {
		fluct = c.VNFPriceFluct
	}
	avg := c.PriceRatio * c.AvgVNFPrice
	return func() float64 { return fluctuate(avg, fluct, rng) }
}

// Load reads the network JSON file netFile (the format network.ReadJSON
// reads) or, when netFile is empty, generates one from cfg, seeded by seed.
func Load(netFile string, cfg Config, seed int64) (*network.Network, error) {
	if netFile == "" {
		return Generate(cfg, rand.New(rand.NewSource(seed)))
	}
	f, err := os.Open(netFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return network.ReadJSON(f)
}

// MustGenerate is Generate that panics on configuration errors.
func MustGenerate(cfg Config, rng *rand.Rand) *network.Network {
	net, err := Generate(cfg, rng)
	if err != nil {
		panic(err)
	}
	return net
}

// Line is the hand-checkable substrate of the cost, validation and oracle
// tests, every link and instance of capacity 10:
//
//	0 --1-- 1 --2-- 2 --3-- 3        (edge prices; edges e0, e1, e2)
//
// with f(1)@1 ($10), f(2)@2 ($20), f(3)@1 ($30), f(3)@3 ($12) and the
// merger@2 ($5). Its optimum for [f1] -> [f2|f3 +m] from 0 to 3 is 59, with
// f(3)@3; a search that stops at coverage finds 73, with f(3)@1.
func Line() *network.Network {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 2, 10)
	g.MustAddEdge(2, 3, 3, 10)
	net := network.New(g, network.Catalog{N: 3})
	net.MustAddInstance(1, 1, 10, 10)
	net.MustAddInstance(2, 2, 20, 10)
	net.MustAddInstance(1, 3, 30, 10)
	net.MustAddInstance(3, 3, 12, 10)
	net.MustAddInstance(2, net.Catalog.Merger(), 5, 10)
	return net
}

// fluctuate draws uniformly from [avg*(1-f), avg*(1+f)], matching the
// paper's definition of the price fluctuation ratio (half the max-min gap
// over the average).
func fluctuate(avg, f float64, rng *rand.Rand) float64 {
	if f == 0 {
		return avg
	}
	return avg * (1 - f + 2*f*rng.Float64())
}
