package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestQuantile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.99, 4.96}} {
		if got := quantile(vs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing should be NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5}, // two values: Python extrapolates past the sample
		{[]float64{1.5, 2.25, 9, 4, 7.75, 3, 8}, 2.25, 8},
	} {
		q1, q3 := quartiles(c.vs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestMedianOfRounds(t *testing.T) {
	rs := []roundResult{
		{Ops: 100, Accepted: 100, Lat: []float64{1, 2, 3}},
		{Ops: 100, Accepted: 90, Lat: []float64{10, 20, 30}},
		{Ops: 100, Accepted: 95, Lat: []float64{4, 5, 6}},
	}
	// The reported p50 is the median of the rounds' p50s (2, 20, 5), not
	// the p50 of the pooled samples.
	if got := medianOfRounds(rs, roundResult.p50); got != 5 {
		t.Errorf("median of per-round p50 = %v, want 5", got)
	}
	if got := medianOfRounds(rs, roundResult.acceptRatio); got != 0.95 {
		t.Errorf("median accept ratio = %v, want 0.95", got)
	}
}
