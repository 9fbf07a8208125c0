package dagsfc

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dagsfc/internal/core"
)

// demoNetwork builds a small hand-wired network through the public API.
func demoNetwork() *Network {
	g := NewGraph(5)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	g.MustAddEdge(2, 3, 1, 100)
	g.MustAddEdge(3, 4, 1, 100)
	g.MustAddEdge(1, 3, 2, 100)
	net := NewNetwork(g, Catalog{N: 3})
	net.MustAddInstance(1, 1, 10, 50)
	net.MustAddInstance(2, 2, 10, 50)
	net.MustAddInstance(3, 3, 10, 50)
	net.MustAddInstance(2, VNFID(4), 2, 50) // merger
	return net
}

func TestPublicAPIEndToEnd(t *testing.T) {
	net := demoNetwork()
	s, err := ParseSFC("1;2,3")
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Net: net, SFC: s, Src: 0, Dst: 4, Rate: 1, Size: 1}
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, res.Solution); err != nil {
		t.Fatal(err)
	}
	if _, err := EmbedBBE(p); err != nil {
		t.Fatal(err)
	}
	if _, err := EmbedMINV(p); err != nil {
		t.Fatal(err)
	}
	if _, err := EmbedRANV(p, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	opt, err := EmbedExact(p)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost.Total() > res.Cost.Total()+1e-9 {
		t.Fatalf("exact %v worse than MBBE %v", opt.Cost.Total(), res.Cost.Total())
	}
}

func TestPublicGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultNetConfig()
	cfg.Nodes = 30
	cfg.VNFKinds = 6
	net, err := GenerateNetwork(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	s, err := GenerateSFC(SFCConfig{Size: 4, LayerWidth: 3, VNFKinds: 6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{Net: net, SFC: s, Src: 0, Dst: 5, Rate: 1, Size: 1}
	if _, err := EmbedMBBE(p); err != nil && !errors.Is(err, ErrNoEmbedding) {
		t.Fatal(err)
	}
}

func TestChainToDAGFacade(t *testing.T) {
	chain := []VNFID{Firewall, IDS, Monitor, NAT}
	hybrid := ChainToDAG(chain, StockRules(), 3)
	if hybrid.Size() != 4 {
		t.Fatalf("size = %d", hybrid.Size())
	}
	if hybrid.Omega() >= len(chain) {
		t.Fatalf("no parallelism extracted: %v", hybrid)
	}
}

// The delay model is not in the facade; these tests run it on a network,
// chain and embedder built through it.

func TestDelayFacade(t *testing.T) {
	net := demoNetwork()
	s, _ := ParseSFC("1;2,3")
	p := &Problem{Net: net, SFC: s, Src: 0, Dst: 4, Rate: 1, Size: 1}
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	d := core.EvaluateDelay(p, res.Solution, core.DefaultDelayParams())
	if d <= 0 {
		t.Fatalf("delay = %v", d)
	}
	q := core.SequentialProblem(p)
	if q.SFC.MaxWidth() != 1 {
		t.Fatal("SequentialProblem not sequential")
	}
}

func TestDelayBoundedFacade(t *testing.T) {
	net := demoNetwork()
	s, _ := ParseSFC("1;2,3")
	opts := core.MBBEOptions()
	opts.MaxDelay = 100
	opts.Delay = core.DefaultDelayParams()
	p := &Problem{Net: net, SFC: s, Src: 0, Dst: 4, Rate: 1, Size: 1}
	res, err := core.Embed(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.EvaluateDelay(p, res.Solution, opts.Delay); d > opts.MaxDelay {
		t.Fatalf("delay %v exceeds bound", d)
	}
}

func TestSerializationFacade(t *testing.T) {
	net := demoNetwork()
	s, _ := ParseSFC("1;2,3")
	p := &Problem{Net: net, SFC: s, Src: 0, Dst: 4, Rate: 1, Size: 1}
	res, err := EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	var netBuf, solBuf strings.Builder
	if err := WriteNetworkJSON(&netBuf, net); err != nil {
		t.Fatal(err)
	}
	net2, err := ReadNetworkJSON(strings.NewReader(netBuf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if net2.NumInstances() != net.NumInstances() {
		t.Fatal("network round trip lost instances")
	}
	if err := WriteSolutionJSON(&solBuf, p, res.Solution); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSolutionJSON(strings.NewReader(solBuf.String()), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(p, back); err != nil {
		t.Fatal(err)
	}
}

func TestParseSFC(t *testing.T) {
	s, err := ParseSFC("1; 2 ,3 ;4")
	if err != nil {
		t.Fatal(err)
	}
	if s.Omega() != 3 || s.Layers[1].Width() != 2 || s.Layers[1].VNFs[1] != 3 {
		t.Fatalf("parsed %v", s)
	}
	if got := FormatSFC(s); got != "1;2,3;4" {
		t.Fatalf("FormatSFC = %q", got)
	}
	if empty, err := ParseSFC("  "); err != nil || empty.Omega() != 0 {
		t.Fatalf("empty parse: %v %v", empty, err)
	}
	for _, bad := range []string{"1;;2", "a", "1,;2", "0", "-3"} {
		if _, err := ParseSFC(bad); err == nil {
			t.Fatalf("ParseSFC(%q) accepted", bad)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		s, err := GenerateSFC(SFCConfig{Size: 1 + rng.Intn(9), LayerWidth: 3, VNFKinds: 12}, rng)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ParseSFC(FormatSFC(s))
		if err != nil {
			t.Fatal(err)
		}
		if back.String() != s.String() {
			t.Fatalf("round trip: %v != %v", back, s)
		}
	}
}

func TestStockConstants(t *testing.T) {
	rt := StockRules()
	if rt.CanParallelize(Firewall, IDS) {
		t.Fatal("rules export broken: the firewall may drop traffic, so it never runs in parallel")
	}
	if !rt.CanParallelize(IDS, Monitor) {
		t.Fatal("rules export broken: two read-only analyzers run in parallel")
	}
}
