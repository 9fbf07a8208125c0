package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dagsfc/internal/network"
)

func TestChainToDAGGroupsReaders(t *testing.T) {
	rt := StockRules()
	// IDS, Monitor, TrafficShaper are mutually read-only -> one layer.
	s := ChainToDAG([]network.VNFID{IDS, Monitor, TrafficShaper}, rt, 0)
	if s.Omega() != 1 || s.Layers[0].Width() != 3 {
		t.Fatalf("readers not grouped: %v", s)
	}
}

func TestChainToDAGRespectsConflicts(t *testing.T) {
	rt := StockRules()
	// NAT and LoadBalancer both write headers -> separate layers.
	s := ChainToDAG([]network.VNFID{NAT, LoadBalancer}, rt, 0)
	if s.Omega() != 2 {
		t.Fatalf("conflicting writers grouped: %v", s)
	}
}

func TestChainToDAGFirewallSplits(t *testing.T) {
	rt := StockRules()
	s := ChainToDAG([]network.VNFID{Firewall, IDS, Monitor}, rt, 0)
	if s.Omega() != 2 {
		t.Fatalf("dropper should isolate: %v", s)
	}
	if s.Layers[0].Width() != 1 || s.Layers[0].VNFs[0] != Firewall {
		t.Fatalf("firewall not alone in first layer: %v", s)
	}
}

func TestChainToDAGMaxWidth(t *testing.T) {
	rt := StockRules()
	// Without the cap these three group together; with maxWidth=2 the
	// third starts a new layer.
	s := ChainToDAG([]network.VNFID{IDS, Monitor, TrafficShaper}, rt, 2)
	if s.Omega() != 2 || s.Layers[0].Width() != 2 || s.Layers[1].Width() != 1 {
		t.Fatalf("maxWidth not honored: %v", s)
	}
}

func TestChainToDAGEmptyChain(t *testing.T) {
	s := ChainToDAG(nil, StockRules(), 3)
	if s.Omega() != 0 || s.Size() != 0 {
		t.Fatalf("empty chain produced %v", s)
	}
}

func TestChainToDAGPreservesMultisetAndOrderProperty(t *testing.T) {
	rt := StockRules()
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n % 12)
		chain := make([]network.VNFID, size)
		for i := range chain {
			chain[i] = network.VNFID(rng.Intn(int(TrafficShaper)) + 1)
		}
		s := ChainToDAG(chain, rt, 3)
		// 1. Sequence must equal the chain exactly (greedy grouping never
		// reorders).
		seq := s.Sequence()
		if len(seq) != len(chain) {
			return false
		}
		for i := range chain {
			if seq[i] != chain[i] {
				return false
			}
		}
		// 2. Every pair within a layer must be parallelizable.
		for _, l := range s.Layers {
			if len(l.VNFs) > 3 {
				return false
			}
			for i := 0; i < len(l.VNFs); i++ {
				for j := i + 1; j < len(l.VNFs); j++ {
					if !rt.CanParallelize(l.VNFs[i], l.VNFs[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestChainToDAGLayersAreIndependentWindows: the layers share one copy of
// the chain, so each must be capped at its own end — appending to one may
// not write into the next — and none may alias the caller's slice.
func TestChainToDAGLayersAreIndependentWindows(t *testing.T) {
	chain := []network.VNFID{Firewall, IDS, Monitor, NAT, LoadBalancer}
	s := ChainToDAG(chain, StockRules(), 3)
	want := Format(s)
	for i := range chain {
		chain[i] = 99
	}
	if got := Format(s); got != want {
		t.Fatalf("result aliases the caller's chain: %q, was %q", got, want)
	}
	for li := range s.Layers {
		if l := s.Layers[li].VNFs; cap(l) != len(l) {
			t.Fatalf("layer %d: cap %d beyond len %d reaches into the next layer", li+1, cap(l), len(l))
		}
		_ = append(s.Layers[li].VNFs, 77)
	}
	if got := Format(s); got != want {
		t.Fatalf("appending to a layer changed a neighbour: %q, was %q", got, want)
	}
}

// The two calls every chain admission makes: a copy of the chain plus the
// layer slice, and the string.
func TestChainToDAGAndFormatAllocs(t *testing.T) {
	chain := []network.VNFID{Firewall, IDS, Monitor, NAT, LoadBalancer, TrafficShaper}
	rules := StockRules()
	var s DAGSFC
	if n := testing.AllocsPerRun(100, func() { s = ChainToDAG(chain, rules, 3) }); n > 2 {
		t.Errorf("ChainToDAG: %v allocs, want at most 2", n)
	}
	var text string
	if n := testing.AllocsPerRun(100, func() { text = Format(s) }); n > 1 {
		t.Errorf("Format: %v allocs, want at most 1", n)
	}
	if back, err := Parse(text); err != nil || Format(back) != text {
		t.Fatalf("Format(%v) = %q does not round-trip: %v", s, text, err)
	}
}
