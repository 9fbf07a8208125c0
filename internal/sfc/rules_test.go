package sfc

import (
	"testing"

	"dagsfc/internal/network"
)

func TestCanParallelizeReadOnlyPairs(t *testing.T) {
	rt := StockRules()
	// Two pure readers always parallelize.
	if !rt.CanParallelize(IDS, Monitor) {
		t.Fatal("two readers should parallelize")
	}
	if !rt.CanParallelize(Monitor, TrafficShaper) {
		t.Fatal("monitor and shaper should parallelize")
	}
}

func TestCanParallelizeWriteConflicts(t *testing.T) {
	rt := StockRules()
	// Two header writers conflict.
	if rt.CanParallelize(NAT, LoadBalancer) {
		t.Fatal("two header writers must not parallelize")
	}
	// Header writer vs header reader conflicts.
	if rt.CanParallelize(NAT, Monitor) {
		t.Fatal("header writer vs reader must not parallelize")
	}
	// Two payload writers conflict.
	if rt.CanParallelize(VPN, WANOptimizer) {
		t.Fatal("two payload writers must not parallelize")
	}
	// Header writer and payload writer touch disjoint regions: OK.
	if !rt.CanParallelize(NAT, VPN) {
		t.Fatal("disjoint-region writers should parallelize")
	}
}

func TestDroppersNeverParallelize(t *testing.T) {
	rt := StockRules()
	for f := network.VNFID(1); f <= NumStockVNFs; f++ {
		if f == Firewall {
			continue
		}
		if rt.CanParallelize(Firewall, f) {
			t.Fatalf("firewall parallelized with f(%d)", f)
		}
	}
}

func TestCanParallelizeSymmetric(t *testing.T) {
	rt := StockRules()
	for a := network.VNFID(1); a <= NumStockVNFs; a++ {
		for b := network.VNFID(1); b <= NumStockVNFs; b++ {
			if rt.CanParallelize(a, b) != rt.CanParallelize(b, a) {
				t.Fatalf("asymmetric for (%d,%d)", a, b)
			}
		}
	}
}

func TestSelfNeverParallelizes(t *testing.T) {
	rt := StockRules()
	for a := network.VNFID(1); a <= NumStockVNFs; a++ {
		if rt.CanParallelize(a, a) {
			t.Fatalf("f(%d) parallelizes with itself", a)
		}
	}
}

func TestUnknownCategoryIsConservative(t *testing.T) {
	rt := StockRules()
	if rt.CanParallelize(Monitor, network.VNFID(42)) {
		t.Fatal("unknown category should be conservative")
	}
	var nilTable *RuleTable
	a := nilTable.ActionOf(1)
	if !a.Drop {
		t.Fatal("nil table should return conservative action")
	}
}

func TestZeroRuleTableNothingParallelizes(t *testing.T) {
	var rt RuleTable
	if rt.CanParallelize(1, 2) {
		t.Fatal("zero table should be fully conservative")
	}
	rt.Set(1, Action{ReadHeader: true})
	rt.Set(2, Action{ReadHeader: true})
	if !rt.CanParallelize(1, 2) {
		t.Fatal("Set on zero table did not take effect")
	}
}

func TestParallelizableFractionStockIsRoughlyHalf(t *testing.T) {
	rt := StockRules()
	pairs, par := 0, 0
	for a := network.VNFID(1); a <= NumStockVNFs; a++ {
		for b := a + 1; b <= NumStockVNFs; b++ {
			pairs++
			if rt.CanParallelize(a, b) {
				par++
			}
		}
	}
	// NFP reports 53.8% for enterprise NF pairs; our stock set should land
	// in the same ballpark.
	if frac := float64(par) / float64(pairs); frac < 0.3 || frac > 0.7 {
		t.Fatalf("stock parallelizable fraction = %v, want ~0.5", frac)
	}
}
