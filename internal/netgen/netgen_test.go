package netgen

import (
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

func smallCfg() Config {
	cfg := Default()
	cfg.Nodes = 60
	cfg.VNFKinds = 5
	return cfg
}

func TestDefaultMatchesTable2(t *testing.T) {
	cfg := Default()
	if cfg.Nodes != 500 || cfg.Connectivity != 6 || cfg.DeployRatio != 0.5 ||
		cfg.PriceRatio != 0.2 || cfg.VNFPriceFluct != 0.05 {
		t.Fatalf("Default deviates from Table 2: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 1 },
		func(c *Config) { c.Connectivity = -1 },
		func(c *Config) { c.VNFKinds = 0 },
		func(c *Config) { c.DeployRatio = 0 },
		func(c *Config) { c.DeployRatio = 1.5 },
		func(c *Config) { c.AvgVNFPrice = 0 },
		func(c *Config) { c.PriceRatio = -0.1 },
		func(c *Config) { c.VNFPriceFluct = 2 },
		func(c *Config) { c.LinkPriceFluct = -0.5 },
		func(c *Config) { c.MergerPriceFactor = -1 },
		func(c *Config) { c.LinkCapacity = 0 },
		func(c *Config) { c.InstanceCapacity = 0 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Fatalf("bad config %d validated: %+v", i, cfg)
		}
	}
}

func TestGenerateConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		net := MustGenerate(smallCfg(), rng)
		if !net.G.Connected() {
			t.Fatalf("trial %d: generated network disconnected", trial)
		}
	}
}

func TestGenerateHitsConnectivityTarget(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 200
	cfg.Connectivity = 6
	rng := rand.New(rand.NewSource(2))
	net := MustGenerate(cfg, rng)
	if d := 2 * float64(net.G.NumEdges()) / float64(cfg.Nodes); math.Abs(d-6) > 0.2 {
		t.Fatalf("avg degree = %v, want ~6", d)
	}
}

func TestGenerateTreeWhenConnectivityLow(t *testing.T) {
	// Connectivity 2 on n nodes asks for n edges; a tree already has n-1,
	// so the graph stays sparse but connected.
	cfg := smallCfg()
	cfg.Connectivity = 2
	net := MustGenerate(cfg, rand.New(rand.NewSource(3)))
	if !net.G.Connected() {
		t.Fatal("sparse network disconnected")
	}
	if net.G.NumEdges() < cfg.Nodes-1 || net.G.NumEdges() > cfg.Nodes {
		t.Fatalf("edges = %d for connectivity 2 on %d nodes", net.G.NumEdges(), cfg.Nodes)
	}
}

func TestGenerateDeployRatioStatistics(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 400
	cfg.DeployRatio = 0.5
	net := MustGenerate(cfg, rand.New(rand.NewSource(4)))
	for i := 1; i <= cfg.VNFKinds; i++ {
		nodes := len(net.NodesWith(network.VNFID(i)))
		frac := float64(nodes) / float64(cfg.Nodes)
		if frac < 0.38 || frac > 0.62 {
			t.Fatalf("category %d deployed on %.0f%% of nodes, want ~50%%", i, 100*frac)
		}
	}
}

func TestGenerateEveryCategoryDeployed(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 10
	cfg.DeployRatio = 0.01 // nearly never; the at-least-one guarantee must kick in
	net := MustGenerate(cfg, rand.New(rand.NewSource(5)))
	for i := 1; i <= cfg.VNFKinds; i++ {
		if len(net.NodesWith(network.VNFID(i))) == 0 {
			t.Fatalf("category %d never deployed", i)
		}
	}
	if len(net.NodesWith(net.Catalog.Merger())) == 0 {
		t.Fatal("merger never deployed")
	}
}

func TestGeneratePriceDistributions(t *testing.T) {
	cfg := smallCfg()
	cfg.Nodes = 300
	cfg.VNFPriceFluct = 0.05
	net := MustGenerate(cfg, rand.New(rand.NewSource(6)))

	lo, hi := cfg.AvgVNFPrice*(1-cfg.VNFPriceFluct), cfg.AvgVNFPrice*(1+cfg.VNFPriceFluct)
	net.Instances(func(inst network.Instance) {
		if !net.Catalog.IsRegular(inst.VNF) {
			return
		}
		if inst.Price < lo-1e-9 || inst.Price > hi+1e-9 {
			t.Fatalf("instance price %v outside [%v,%v]", inst.Price, lo, hi)
		}
	})
	if avg := net.AvgVNFPrice(); math.Abs(avg-cfg.AvgVNFPrice)/cfg.AvgVNFPrice > 0.02 {
		t.Fatalf("avg VNF price = %v, want ~%v", avg, cfg.AvgVNFPrice)
	}
	wantLink := cfg.PriceRatio * cfg.AvgVNFPrice
	if avg := net.AvgLinkPrice(); math.Abs(avg-wantLink)/wantLink > 0.05 {
		t.Fatalf("avg link price = %v, want ~%v", avg, wantLink)
	}
}

func TestGenerateZeroFluctuationIsExact(t *testing.T) {
	cfg := smallCfg()
	cfg.VNFPriceFluct = 0
	net := MustGenerate(cfg, rand.New(rand.NewSource(7)))
	net.Instances(func(inst network.Instance) {
		if net.Catalog.IsRegular(inst.VNF) && inst.Price != cfg.AvgVNFPrice {
			t.Fatalf("price %v with zero fluctuation", inst.Price)
		}
	})
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	a := MustGenerate(smallCfg(), rand.New(rand.NewSource(42)))
	b := MustGenerate(smallCfg(), rand.New(rand.NewSource(42)))
	if a.G.NumEdges() != b.G.NumEdges() || a.NumInstances() != b.NumInstances() {
		t.Fatal("same seed produced different networks")
	}
	for _, e := range a.G.Edges() {
		f := b.G.Edge(e.ID)
		if e.A != f.A || e.B != f.B || e.Price != f.Price {
			t.Fatal("edge streams diverge for identical seeds")
		}
	}
}

func TestGenerateRejectsInvalidConfig(t *testing.T) {
	cfg := Default()
	cfg.Nodes = 0
	if _, err := Generate(cfg, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid config generated")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate should panic on invalid config")
		}
	}()
	MustGenerate(cfg, rand.New(rand.NewSource(1)))
}

func TestPopulateOnCustomTopology(t *testing.T) {
	cfg := smallCfg()
	g := graph.New(30)
	for v := 1; v < 30; v++ {
		g.MustAddEdge(graph.NodeID(v-1), graph.NodeID(v), 1, 10)
	}
	rng := rand.New(rand.NewSource(9))
	net, err := Populate(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.G != g {
		t.Fatal("Populate replaced the topology")
	}
	for i := 1; i <= cfg.VNFKinds; i++ {
		if len(net.NodesWith(network.VNFID(i))) == 0 {
			t.Fatalf("category %d not deployed", i)
		}
	}
	if len(net.NodesWith(net.Catalog.Merger())) == 0 {
		t.Fatal("merger not deployed")
	}
}

func TestPopulateRejectsEmptyTopology(t *testing.T) {
	if _, err := Populate(graph.New(0), smallCfg(), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty topology accepted")
	}
	bad := smallCfg()
	bad.DeployRatio = 0
	if _, err := Populate(graph.New(5), bad, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("invalid deployment config accepted")
	}
}

func TestLinkPricer(t *testing.T) {
	cfg := smallCfg()
	cfg.PriceRatio = 0.2
	cfg.AvgVNFPrice = 100
	cfg.VNFPriceFluct = 0.05
	pricer := cfg.LinkPricer(rand.New(rand.NewSource(3)))
	lo, hi := 20*0.95, 20*1.05
	sum := 0.0
	for i := 0; i < 500; i++ {
		p := pricer()
		if p < lo-1e-9 || p > hi+1e-9 {
			t.Fatalf("price %v outside [%v,%v]", p, lo, hi)
		}
		sum += p
	}
	if avg := sum / 500; math.Abs(avg-20) > 0.5 {
		t.Fatalf("avg link price %v, want ~20", avg)
	}
}

func TestGenerateNoSelfLoopsOrDuplicateLinks(t *testing.T) {
	net := MustGenerate(smallCfg(), rand.New(rand.NewSource(8)))
	seen := map[[2]graph.NodeID]bool{}
	for _, e := range net.G.Edges() {
		if e.A == e.B {
			t.Fatal("self loop generated")
		}
		key := [2]graph.NodeID{e.A, e.B}
		if e.A > e.B {
			key = [2]graph.NodeID{e.B, e.A}
		}
		if seen[key] {
			t.Fatalf("duplicate link %v", key)
		}
		seen[key] = true
	}
}
