// Package stats provides the small set of summary statistics the
// simulation harness, the offline driver and the repository benchmark
// report: one stream's mean/variance (Welford), min/max, and
// normal-approximation confidence intervals.
package stats

import "math"

// Accumulator collects a stream of observations with O(1) memory using
// Welford's online algorithm. The zero value is ready to use.
type Accumulator struct {
	n        int
	mean, m2 float64
	min, max float64 // 0 with no observations: check n before trusting them
}

// Add records one observation.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N reports the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean reports the sample mean (0 with no observations).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance reports the unbiased sample variance (0 with <2 observations).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev reports the sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// StdErr reports the standard error of the mean.
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.StdDev() / math.Sqrt(float64(a.n))
}

// CI95 reports the half-width of a 95% normal-approximation confidence
// interval around the mean. With the harness's 100 trials per point the
// normal approximation is adequate.
func (a *Accumulator) CI95() float64 { return 1.96 * a.StdErr() }

// Summary is a value snapshot of an accumulator.
type Summary struct {
	N            int
	Mean, StdDev float64
	Min, Max     float64
	CI95         float64
}

// Summarize snapshots the accumulator.
func (a *Accumulator) Summarize() Summary {
	return Summary{
		N: a.n, Mean: a.Mean(), StdDev: a.StdDev(),
		Min: a.min, Max: a.max, CI95: a.CI95(),
	}
}

// Mean computes the mean of a slice (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
