package sim

import (
	"fmt"
	"strconv"
	"time"

	"dagsfc/internal/stats"
)

// A Metric is what one of a sweep's tables shows in its cells.
type Metric string

// The metrics of a cell.
const (
	MeanCost  Metric = "cost"     // mean cost of the successful runs
	MeanDelay Metric = "delay"    // mean end-to-end delay of the successful runs
	MeanTime  Metric = "time"     // mean wall-clock per embedding attempt
	Failures  Metric = "failures" // failed embedding attempts
)

// Metrics lists the metrics in the order a sweep's tables are printed.
func Metrics() []Metric { return []Metric{MeanCost, MeanDelay, MeanTime, Failures} }

// Table renders one metric of a sweep as the paper draws its figures: a
// row per x value, a column per arm. A cell reads "-" where the arm has no
// value: skipped at that x, or, for a mean, no run succeeded.
func (e *Experiment) Table(points []Point, m Metric) *Table {
	t := &Table{Title: e.Title + " — " + string(m), Header: []string{e.XLabel}}
	for _, alg := range e.Algorithms {
		t.Header = append(t.Header, string(alg))
	}
	for _, p := range points {
		row := []string{e.label(p.X)}
		for _, alg := range e.Algorithms {
			row = append(row, p.Cells[alg].format(m))
		}
		t.AddRow(row...)
	}
	return t
}

// label names an x value: by its topology where the point has one.
func (e *Experiment) label(x float64) string {
	if t := e.Configure(x).topology; t != nil {
		return t.name
	}
	return num(x)
}

// mean is the summary a mean metric averages.
func (c *Cell) mean(m Metric) stats.Summary {
	if m == MeanDelay {
		return c.Delay
	}
	return c.Cost
}

// format renders the cell's value of m.
func (c *Cell) format(m Metric) string {
	switch s := c.mean(m); {
	case c.Cost.N+c.Failures == 0: // skipped
		return "-"
	case m == Failures:
		return strconv.Itoa(c.Failures)
	case m == MeanTime:
		return c.AvgTime.Round(10 * time.Microsecond).String()
	case s.N == 0: // no run succeeded
		return "-"
	default:
		return num(s.Mean)
	}
}

// Reductions are a sweep's headline numbers (e.g. "MBBE is ~30% cheaper
// than MINV" in Fig. 6(a)): for each pair of arms the sweep ran, how much
// lower the first one's mean is, averaged over the x values.
func Reductions(points []Point) []string {
	var lines []string
	for _, r := range []struct {
		a, b Algorithm
		m    Metric
	}{
		{MBBE, MINV, MeanCost}, {MBBE, RANV, MeanCost}, {MBBE, BBE, MeanCost}, {MBBE, EXACT, MeanCost},
		{MBBE, SEQ, MeanDelay},
	} {
		if frac, ok := reduction(points, r.a, r.b, r.m); ok {
			lines = append(lines, fmt.Sprintf("%s vs %s: %s lower %s on average", r.a, r.b, pct(frac), r.m))
		}
	}
	return lines
}

// reduction reports the mean relative reduction of a's mean m vs b's
// across all points where both produced solutions. Points where either is
// missing are skipped; ok is false if no point qualified.
func reduction(points []Point, a, b Algorithm, m Metric) (frac float64, ok bool) {
	var sum float64
	var n int
	for _, p := range points {
		ca, cb := p.Cells[a], p.Cells[b]
		if ca == nil || cb == nil || ca.mean(m).N == 0 || cb.mean(m).N == 0 || cb.mean(m).Mean == 0 {
			continue
		}
		sum += 1 - ca.mean(m).Mean/cb.mean(m).Mean
		n++
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
