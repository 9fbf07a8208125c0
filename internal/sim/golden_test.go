package sim

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dagsfc/internal/stats"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from TestGolden's runs")

// The goldens pin every sweep of the catalog at this trial count and seed.
const goldenTrials, goldenSeed = 3, 2018

// goldenRuns runs each sweep of the catalog once, the first time a test
// asks for it.
var goldenRuns = func() map[string]func() ([]Point, error) {
	runs := map[string]func() ([]Point, error){}
	for name, e := range Experiments(goldenTrials) {
		runs[name] = sync.OnceValues(func() ([]Point, error) { return e.Run(goldenSeed) })
	}
	return runs
}()

// goldenPoints returns the golden run of the named sweep.
func goldenPoints(t *testing.T, name string) (*Experiment, []Point) {
	t.Helper()
	points, err := goldenRuns[name]()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := Lookup(name, goldenTrials)
	return e, points
}

// exactMean renders a mean to full float64 precision, "-" when no run
// succeeded.
func exactMean(s stats.Summary) string {
	if s.N == 0 {
		return "-"
	}
	return strconv.FormatFloat(s.Mean, 'g', -1, 64)
}

// goldenTable renders every cell of a sweep exactly: a row per (x, arm)
// with its successful and failed runs and its mean cost and delay. Times
// are left out; the seed fixes everything else.
func goldenTable(e *Experiment, points []Point) *Table {
	t := &Table{Title: e.Name, Header: []string{e.XLabel, "arm", "N", "failures", "cost", "delay"}}
	for _, p := range points {
		for _, alg := range e.Algorithms {
			c := p.Cells[alg]
			t.AddRow(e.label(p.X), string(alg), strconv.Itoa(c.Cost.N), strconv.Itoa(c.Failures), exactMean(c.Cost), exactMean(c.Delay))
		}
	}
	return t
}

// TestGolden runs every sweep of `dagsfc-bench -exp all` at 3 trials per
// point and compares each cell with testdata/<sweep>.golden; -update
// rewrites the files. Each sweep's tables must also have a row per x and
// a column per arm, with "-" exactly where the golden has no mean.
func TestGolden(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, points := goldenPoints(t, name)
			var b strings.Builder
			if err := goldenTable(e, points).Render(&b); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if b.String() != string(want) {
				t.Errorf("%s moved (rerun with -update if the change is meant):\ngot:\n%s\nwant:\n%s", path, b.String(), want)
			}
			for _, m := range Metrics() {
				tab := e.Table(points, m)
				if len(tab.Rows) != len(e.Xs) || len(tab.Header) != 1+len(e.Algorithms) {
					t.Fatalf("%s table is %dx%d, want %dx%d", m, len(tab.Rows), len(tab.Header), len(e.Xs), 1+len(e.Algorithms))
				}
				for i, p := range points {
					for j, alg := range e.Algorithms {
						c := p.Cells[alg]
						if c.Cost.N+c.Failures != e.Trials && !(e.Skip != nil && e.Skip(alg, p.X)) {
							t.Errorf("%s at %v: %d runs + %d failures, want %d trials", alg, p.X, c.Cost.N, c.Failures, e.Trials)
						}
						if got := tab.Rows[i][j+1]; (m == MeanCost || m == MeanDelay) && (got == "-") != (c.mean(m).N == 0) {
							t.Errorf("%s table at %v, %s reads %q over %d runs", m, p.X, alg, got, c.mean(m).N)
						}
					}
				}
			}
		})
	}
}

// TestPaperClaims asserts on the golden runs the paper's claims that
// already hold at 3 trials per point. MBBE ≤ BBE and MINV ≤ RANV per point
// do not (MBBE is above BBE at fig6b n=20 and n=200 and fig6c degree 14,
// MINV above RANV at fig6a sizes 4, 5 and 8) and are left to the 100-trial
// tables of EXPERIMENTS.md.
func TestPaperClaims(t *testing.T) {
	cost := func(p Point, alg Algorithm) float64 { return p.Cells[alg].Cost.Mean }
	delay := func(p Point, alg Algorithm) float64 { return p.Cells[alg].Delay.Mean }
	mbbeWins := func(_, p Point) bool { return cost(p, MBBE) < min(cost(p, MINV), cost(p, RANV)) }
	for _, c := range []struct {
		name, claim string
		sweeps      []string
		holds       func(prev, p Point) bool
	}{
		{"mbbe-below-benchmarks", "MBBE below min(MINV, RANV)", []string{"fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f"}, mbbeWins},
		{"cost-rises-with-size", "MBBE's cost rises strictly with the SFC size", []string{"fig6a"},
			func(prev, p Point) bool { return prev.Cells == nil || cost(prev, MBBE) < cost(p, MBBE) }},
		{"exact-below-mbbe", "EXACT ≤ MBBE", []string{"gap"},
			func(_, p Point) bool { return cost(p, EXACT) <= cost(p, MBBE) }},
		{"ilp-below-exact", "ILP ≤ EXACT", []string{"ipgap"},
			func(_, p Point) bool { return cost(p, ILP) <= cost(p, EXACT) }},
		{"hybrid-delay-below-sequential", "the hybrid SFC's delay below the sequential one's", []string{"delay"},
			func(_, p Point) bool { return delay(p, MBBE) < delay(p, SEQ) }},
		{"mbbe-wins-every-topology", "MBBE below min(MINV, RANV)", []string{"topo"}, mbbeWins},
		{"budget-enforced", "a budget of 1 × the unbounded delay always met, and no budget's mean delay above the unbounded one's",
			[]string{"pareto"}, func(_, p Point) bool {
				return p.Cells[budget(1)].Failures == 0 && !slices.ContainsFunc(Pareto(1).Algorithms, func(alg Algorithm) bool {
					return delay(p, alg) > delay(p, MBBE)
				})
			}},
	} {
		t.Run(c.name, func(t *testing.T) {
			for _, name := range c.sweeps {
				_, points := goldenPoints(t, name)
				var prev Point
				for _, p := range points {
					if !c.holds(prev, p) {
						t.Errorf("%s at x=%v: not %s", name, p.X, c.claim)
					}
					prev = p
				}
			}
		})
	}
}
