package main

import (
	"fmt"
	"io"
	"math"
	"strconv"
)

// runAA is the repeatability check the benchmark holds itself to. It runs
// every workload 2×n times on the same seed, even runs forming set A and
// odd runs set B — two sets of runs of identical code on identical inputs
// — and prints for each metric the interquartile spread of all 2n values
// as a share of their median, each set's median and quartiles, and
// |A−B|/A. An end-to-end metric fails if its spread exceeds its bound or
// |A−B|/A exceeds half of it. The ungated timings are printed the same
// way against the bounds the issue gave them, and fail nothing: the table
// is the evidence for or against gating them.
func runAA(w io.Writer, n int, common []string, seed int64) error {
	failed := 0
	for _, sp := range specs {
		values := map[string][]float64{}
		for j := 0; j < 2*n; j++ {
			args := append(append([]string{}, common...),
				"-workload", sp.Name, "-seed", strconv.FormatInt(seed, 10), "-trace", "0")
			res, err := runChild(io.Discard, args)
			if err != nil {
				return fmt.Errorf("%s run %d: %w", sp.Name, j+1, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s run %d: correct=%v failed=%d", sp.Name, j+1, res.Correct, res.Failed)
			}
			for name, mv := range res.Metrics {
				values[name] = append(values[name], mv.Value)
			}
			for name, v := range res.Timings {
				values[name] = append(values[name], v)
			}
			fmt.Fprintf(w, "%s run %d/%d (set %c) done\n", sp.Name, j+1, 2*n, 'A'+rune(j%2))
		}
		fmt.Fprintf(w, "\n%s: %d runs on seed %d\n", sp.Name, 2*n, seed)
		fmt.Fprintf(w, "  %-18s %11s %7s | %11s %11s %11s | %11s %11s %11s | %7s %6s\n",
			"metric", "median", "spread", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "|A-B|/A", "bound")
		row := func(d metricDef, gated bool) {
			var a, b []float64
			for j, v := range values[d.Name] {
				if j%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			sprd := spread(values[d.Name])
			diff := math.Abs(median(b)-median(a)) / math.Abs(median(a))
			verdict := ""
			if sprd > d.Bound || diff > d.Bound/2 {
				verdict = "  (over)"
				if gated {
					verdict = "  FAIL"
					failed++
				}
			}
			fmt.Fprintf(w, "  %-18s %11.4f %6.2f%% | %11.4f %11.4f %11.4f | %11.4f %11.4f %11.4f | %6.2f%% %5.1f%%%s\n",
				d.Name, median(values[d.Name]), 100*sprd, aq1, median(a), aq3, bq1, median(b), bq3, 100*diff, 100*d.Bound, verdict)
		}
		for _, d := range endToEnd {
			row(d, true)
		}
		for _, d := range timings {
			row(d, false)
		}
		fmt.Fprintln(w)
	}
	if failed > 0 {
		return fmt.Errorf("%d end-to-end metric(s) not repeatable within their bounds", failed)
	}
	return nil
}
