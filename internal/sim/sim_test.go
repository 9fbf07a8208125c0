package sim

import (
	"slices"
	"strings"
	"testing"
)

// tinyExperiment is a fast sweep used by the harness tests.
func tinyExperiment(trials int) *Experiment {
	return &Experiment{
		Name:       "tiny",
		Title:      "tiny sweep",
		XLabel:     "SFC size",
		Xs:         []float64{1, 3},
		Algorithms: []Algorithm{MBBE, MINV, RANV},
		Trials:     trials,
		Configure: func(x float64) PointConfig {
			cfg := baseConfig()
			cfg.Net.Nodes = 40
			cfg.Net.VNFKinds = 6
			cfg.SFC.Size = int(x)
			return cfg
		},
	}
}

func TestRunProducesAllCells(t *testing.T) {
	e := tinyExperiment(3)
	points, err := e.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	for _, p := range points {
		for _, alg := range e.Algorithms {
			cell := p.Cells[alg]
			if cell == nil {
				t.Fatalf("missing cell for %s at x=%v", alg, p.X)
			}
			if cell.Cost.N+cell.Failures != e.Trials {
				t.Fatalf("%s at x=%v: %d successes + %d failures != %d trials",
					alg, p.X, cell.Cost.N, cell.Failures, e.Trials)
			}
			if cell.Cost.N > 0 && cell.Cost.Mean <= 0 {
				t.Fatalf("%s at x=%v: nonpositive mean cost %v", alg, p.X, cell.Cost.Mean)
			}
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	a, err := tinyExperiment(3).Run(42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tinyExperiment(3).Run(42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for alg, cell := range a[i].Cells {
			other := b[i].Cells[alg]
			if cell.Cost.Mean != other.Cost.Mean || cell.Failures != other.Failures {
				t.Fatalf("seed 42 not reproducible for %s at x=%v", alg, a[i].X)
			}
		}
	}
}

// TestRunParallelMatchesSequential: every sweep kind gives the same cells
// on one worker and on four.
func TestRunParallelMatchesSequential(t *testing.T) {
	small := func(e *Experiment, xs int) *Experiment {
		e.Xs = e.Xs[:xs]
		return e
	}
	for _, e := range []*Experiment{tinyExperiment(6), small(Delay(3), 1), small(Topologies(2), 2), Pareto(3)} {
		t.Run(e.Name, func(t *testing.T) {
			a, err := e.Run(42)
			if err != nil {
				t.Fatal(err)
			}
			e.Parallelism = 4
			b, err := e.Run(42)
			if err != nil {
				t.Fatal(err)
			}
			for i := range a {
				for alg, cell := range a[i].Cells {
					other := b[i].Cells[alg]
					if cell.Cost != other.Cost || cell.Delay != other.Delay || cell.Failures != other.Failures {
						t.Fatalf("parallel run diverged for %s at x=%v: %+v vs %+v", alg, a[i].X, cell, other)
					}
				}
			}
		})
	}
}

func TestRunParallelismExceedingTrials(t *testing.T) {
	e := tinyExperiment(2)
	e.Parallelism = 64
	if _, err := e.Run(3); err != nil {
		t.Fatal(err)
	}
}

func TestRunSkipHonored(t *testing.T) {
	e := tinyExperiment(2)
	e.Algorithms = []Algorithm{MBBE, BBE}
	e.Skip = func(alg Algorithm, x float64) bool { return alg == BBE && x > 1 }
	points, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	bbeAt3 := points[1].Cells[BBE]
	if bbeAt3.Cost.N != 0 || bbeAt3.Failures != 0 {
		t.Fatalf("BBE should be skipped at x=3: %+v", bbeAt3)
	}
	if points[0].Cells[BBE].Cost.N == 0 {
		t.Fatal("BBE should run at x=1")
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	e := tinyExperiment(1)
	e.Configure = func(x float64) PointConfig {
		cfg := baseConfig()
		cfg.Net.Nodes = 0
		return cfg
	}
	if _, err := e.Run(1); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestRunRejectsUnknownAlgorithm: Run refuses a sweep with an arm it
// cannot run, as it refuses an invalid configuration, before any trial.
func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	for _, alg := range []Algorithm{"NOPE", budgetPrefix + "0", budgetPrefix + "x"} {
		e := tinyExperiment(1)
		e.Algorithms = []Algorithm{MBBE, alg}
		if _, err := e.Run(1); err == nil {
			t.Errorf("%q accepted", alg)
		}
	}
}

func TestExperimentCatalog(t *testing.T) {
	exps := Experiments(5)
	for _, name := range Names() {
		e, ok := exps[name]
		if !ok {
			t.Fatalf("experiment %q missing from catalog", name)
		}
		if e.Trials != 5 {
			t.Fatalf("%s trials = %d, want 5", name, e.Trials)
		}
		if len(e.Xs) == 0 || e.Configure == nil {
			t.Fatalf("%s incompletely defined", name)
		}
		// Every x must produce a valid generator config.
		for _, x := range e.Xs {
			cfg := e.Configure(x)
			if err := cfg.Net.Validate(); err != nil {
				t.Fatalf("%s x=%v: %v", name, x, err)
			}
			if err := cfg.SFC.Validate(); err != nil {
				t.Fatalf("%s x=%v: %v", name, x, err)
			}
		}
	}
	if _, err := Lookup("fig6a", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("bogus", 2); err == nil {
		t.Fatal("bogus experiment looked up")
	}
}

func TestFig6aSkipsBBEPastCutoff(t *testing.T) {
	e := Fig6a(1)
	if !e.Skip(BBE, 6) || e.Skip(BBE, 5) || e.Skip(MBBE, 9) {
		t.Fatal("BBE cutoff rule wrong")
	}
}

// fields renders a table and splits each of its lines into fields.
func fields(t *testing.T, tab *Table) [][]string {
	var b strings.Builder
	if err := tab.Render(&b); err != nil {
		t.Fatal(err)
	}
	var lines [][]string
	for _, line := range strings.Split(b.String(), "\n") {
		lines = append(lines, strings.Fields(line))
	}
	return lines
}

func TestTables(t *testing.T) {
	e := tinyExperiment(3)
	e.Algorithms = []Algorithm{MBBE, BBE}
	e.Skip = func(alg Algorithm, x float64) bool { return alg == BBE && x > 1 }
	points, err := e.Run(11)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Metrics() {
		lines := fields(t, e.Table(points, m))
		if strings.Join(lines[0], " ") != "tiny sweep — "+string(m) || !slices.Equal(lines[1], []string{"SFC", "size", "MBBE", "BBE"}) ||
			lines[4][0] != "3" || lines[4][2] != "-" {
			t.Errorf("%s table: no title, header or skipped BBE cell: %q", m, lines)
		}
	}
}

// goldenFields is fields of one metric's table of a golden run.
func goldenFields(t *testing.T, name string, m Metric) [][]string {
	e, points := goldenPoints(t, name)
	return fields(t, e.Table(points, m))
}

// TestDelayTableRenders: the delay sweep compares the hybrid and the
// sequential embedding by delay, with its headline cut.
func TestDelayTableRenders(t *testing.T) {
	_, points := goldenPoints(t, "delay")
	if lines := goldenFields(t, "delay", MeanDelay); !slices.Equal(lines[1], []string{"SFC", "size", "MBBE", "MBBE-seq"}) ||
		!strings.HasPrefix(Reductions(points)[0], "MBBE vs MBBE-seq: ") {
		t.Fatalf("delay table or reduction missing its arms: %q, %q", lines, Reductions(points))
	}
}

// TestParetoTable: a budget no trial met prints "-" for its cost, not 0.
func TestParetoTable(t *testing.T) {
	if row := goldenFields(t, "pareto", MeanCost)[3]; row[1] != "-" || row[6] == "-" {
		t.Fatalf("pareto cost row = %q", row)
	}
}

// TestTopoTable: the topology sweep's rows are named by the catalog.
func TestTopoTable(t *testing.T) {
	lines := goldenFields(t, "topo", MeanCost)
	for i, tb := range topologyCatalog() {
		if lines[3+i][0] != tb.name {
			t.Fatalf("row %d is %q, want %s", i, lines[3+i], tb.name)
		}
	}
}

// TestRunTopologiesSmall: the topology sweep has a row for every catalog
// topology, and every cell accounts for each trial as a run or a failure.
func TestRunTopologiesSmall(t *testing.T) {
	e := Topologies(2)
	points, err := e.Run(7)
	if err != nil {
		t.Fatal(err)
	}
	catalog := topologyCatalog()
	if len(points) != len(catalog) {
		t.Fatalf("points = %d, want %d", len(points), len(catalog))
	}
	names := map[string]bool{}
	for _, p := range points {
		name := catalog[int(p.X)].name
		names[name] = true
		for _, alg := range e.Algorithms {
			cell := p.Cells[alg]
			if cell == nil {
				t.Fatalf("%s: missing cell for %s", name, alg)
			}
			if cell.Cost.N+cell.Failures != 2 {
				t.Fatalf("%s/%s: %d+%d != 2 trials", name, alg, cell.Cost.N, cell.Failures)
			}
		}
	}
	for _, want := range []string{"random", "ring", "grid", "torus", "fat-tree", "scale-free", "waxman"} {
		if !names[want] {
			t.Fatalf("topology %q missing", want)
		}
	}
}

func TestRunTopologiesDeterministic(t *testing.T) {
	a, err := Topologies(2).Run(11)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Topologies(2).Run(11)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		for alg, cell := range a[i].Cells {
			if other := b[i].Cells[alg]; cell.Cost.Mean != other.Cost.Mean || cell.Failures != other.Failures {
				t.Fatalf("x=%v/%s not reproducible", a[i].X, alg)
			}
		}
	}
}

func TestReduction(t *testing.T) {
	e := tinyExperiment(5)
	points, err := e.Run(13)
	if err != nil {
		t.Fatal(err)
	}
	frac, ok := reduction(points, MBBE, RANV, MeanCost)
	if !ok {
		t.Fatal("no comparable points")
	}
	// MBBE should beat the random baseline on average.
	if frac <= 0 {
		t.Fatalf("MBBE vs RANV reduction = %v, want > 0", frac)
	}
	if _, ok := reduction(points, "NOPE", MINV, MeanCost); ok {
		t.Fatal("reduction against missing algorithm should fail")
	}
}

func TestTrialSeedSpread(t *testing.T) {
	seen := map[int64]bool{}
	for p := 0; p < 10; p++ {
		for tr := 0; tr < 10; tr++ {
			s := trialSeed(1, p, tr)
			if seen[s] {
				t.Fatalf("seed collision at point %d trial %d", p, tr)
			}
			seen[s] = true
		}
	}
}
