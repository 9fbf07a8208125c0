package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Fatalf("N = %d", a.N())
	}
	if a.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", a.Mean())
	}
	// Population variance of this classic set is 4; sample variance is
	// 32/7.
	if math.Abs(a.Variance()-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v, want %v", a.Variance(), 32.0/7.0)
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorEmpty(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 || a.Variance() != 0 || a.StdErr() != 0 || a.CI95() != 0 {
		t.Fatal("empty accumulator should report zeros")
	}
}

func TestAccumulatorSingle(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Mean() != 3.5 || a.Variance() != 0 || a.Min() != 3.5 || a.Max() != 3.5 {
		t.Fatal("single-observation stats wrong")
	}
}

func TestSummarize(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(3)
	s := a.Summarize()
	if s.N != 2 || s.Mean != 2 || s.Min != 1 || s.Max != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.StdDev-math.Sqrt2) > 1e-12 {
		t.Fatalf("StdDev = %v", s.StdDev)
	}
}

func TestMeanSlice(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) != 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
}

func TestWelfordMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 2
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		var a Accumulator
		for i := range xs {
			xs[i] = rng.NormFloat64()*10 + 5
			a.Add(xs[i])
		}
		mean := Mean(xs)
		var ss float64
		for _, x := range xs {
			ss += (x - mean) * (x - mean)
		}
		naiveVar := ss / float64(n-1)
		return math.Abs(a.Mean()-mean) < 1e-9 && math.Abs(a.Variance()-naiveVar) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAccumulatorEmptyExtremes pins the documented zero-observation
// behaviour: Min and Max are silently 0, not ±Inf, so table renderers can
// print them without special-casing — but N must be consulted first.
func TestAccumulatorEmptyExtremes(t *testing.T) {
	var a Accumulator
	if a.Min() != 0 || a.Max() != 0 {
		t.Fatalf("empty Min/Max = %v/%v, want 0/0", a.Min(), a.Max())
	}
	// The zero reports are not sticky: the first observation replaces them
	// even when it is negative (i.e. smaller than the phantom 0).
	a.Add(-5)
	if a.Min() != -5 || a.Max() != -5 {
		t.Fatalf("Min/Max after Add(-5) = %v/%v", a.Min(), a.Max())
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var small, large Accumulator
	for i := 0; i < 10; i++ {
		small.Add(rng.NormFloat64())
	}
	for i := 0; i < 1000; i++ {
		large.Add(rng.NormFloat64())
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI did not shrink: %v vs %v", large.CI95(), small.CI95())
	}
}
