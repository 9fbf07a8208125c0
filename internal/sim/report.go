package sim

import (
	"fmt"
	"time"
)

// CostTable renders the aggregated average costs as one row per x value
// and one column per algorithm — the tabular form of a paper figure.
func CostTable(e *Experiment, points []Point) *Table {
	t := &Table{Title: e.Title}
	t.Header = []string{e.XLabel}
	for _, alg := range e.Algorithms {
		t.Header = append(t.Header, string(alg))
	}
	for _, p := range points {
		row := []string{num(p.X)}
		for _, alg := range e.Algorithms {
			cell := p.Cells[alg]
			if cell == nil || cell.Cost.N == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, num(cell.Cost.Mean))
		}
		t.AddRow(row...)
	}
	return t
}

// TimeTable renders mean wall-clock per embedding attempt.
func TimeTable(e *Experiment, points []Point) *Table {
	t := &Table{Title: e.Title + " — mean time per embedding"}
	t.Header = []string{e.XLabel}
	for _, alg := range e.Algorithms {
		t.Header = append(t.Header, string(alg))
	}
	for _, p := range points {
		row := []string{num(p.X)}
		for _, alg := range e.Algorithms {
			cell := p.Cells[alg]
			if cell == nil || (cell.Cost.N == 0 && cell.Failures == 0) {
				row = append(row, "-")
				continue
			}
			row = append(row, cell.AvgTime.Round(10*time.Microsecond).String())
		}
		t.AddRow(row...)
	}
	return t
}

// FailureTable renders per-cell failure counts (the paper notes the
// benchmarks "do not always result in a solution").
func FailureTable(e *Experiment, points []Point) *Table {
	t := &Table{Title: e.Title + " — failed embeddings"}
	t.Header = []string{e.XLabel}
	for _, alg := range e.Algorithms {
		t.Header = append(t.Header, string(alg))
	}
	for _, p := range points {
		row := []string{num(p.X)}
		for _, alg := range e.Algorithms {
			cell := p.Cells[alg]
			if cell == nil || (cell.Cost.N == 0 && cell.Failures == 0) {
				row = append(row, "-")
				continue
			}
			row = append(row, fmt.Sprintf("%d", cell.Failures))
		}
		t.AddRow(row...)
	}
	return t
}

// Reduction reports the mean relative cost reduction of algorithm a vs b
// across all points where both produced solutions (e.g. "MBBE is ~30%
// cheaper than MINV" in Fig. 6(a)). Points where either is missing are
// skipped; ok is false if no point qualified.
func Reduction(points []Point, a, b Algorithm) (frac float64, ok bool) {
	var sum float64
	var n int
	for _, p := range points {
		ca, cb := p.Cells[a], p.Cells[b]
		if ca == nil || cb == nil || ca.Cost.N == 0 || cb.Cost.N == 0 || cb.Cost.Mean == 0 {
			continue
		}
		sum += 1 - ca.Cost.Mean/cb.Cost.Mean
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
