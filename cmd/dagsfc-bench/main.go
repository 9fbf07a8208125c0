// Command dagsfc-bench regenerates the paper's evaluation (§5, Fig. 6(a)–(f))
// plus the runtime, optimality-gap, delay, topology and delay-budget
// experiments, printing each sweep's cost, delay, time and failure tables
// and its headline reductions. Results are averaged over -trials simulation
// instances per point (the paper uses 100) and are fully determined by -seed.
//
// Usage:
//
//	dagsfc-bench [-exp all|fig6a|...|pareto] [-trials N] [-seed S] [-csv DIR] [-parallel N]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-metrics-out metrics.prom] [-debug-addr localhost:6060]
//
// The diagnostics flags profile a whole run and snapshot the telemetry
// registry (per-algorithm embed latency histograms and search-effort
// counters) on exit; -debug-addr additionally serves live /metrics and
// /debug/pprof/ while the sweep executes. See README.md, Observability.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dagsfc/internal/diag"
	"dagsfc/internal/sim"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment to run: all, or one of "+strings.Join(sim.Names(), ", "))
		trials   = flag.Int("trials", sim.DefaultTrials, "simulation instances per point")
		seed     = flag.Int64("seed", 2018, "master seed")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		parallel = flag.Int("parallel", 1, "concurrent trials per point (results identical; timings noisier). The runtime experiment always runs sequentially")
	)
	diag.Main("dagsfc-bench", func() error {
		return run(*expName, *trials, *seed, *csvDir, *parallel)
	})
}

func run(expName string, trials int, seed int64, csvDir string, parallel int) error {
	if trials < 1 {
		return fmt.Errorf("trials must be >= 1")
	}
	names := []string{expName}
	if expName == "all" {
		names = sim.Names()
	}
	for _, name := range names {
		e, err := sim.Lookup(name, trials)
		if err != nil {
			return err
		}
		if name != "runtime" {
			e.Parallelism = parallel
		}
		start := time.Now()
		points, err := e.Run(seed)
		if err != nil {
			return err
		}
		for _, m := range sim.Metrics() {
			if err := emit(e.Table(points, m), csvDir, name+"_"+string(m)); err != nil {
				return err
			}
		}
		for _, line := range sim.Reductions(points) {
			fmt.Println("  " + line)
		}
		fmt.Printf("(%s: %d trials/point, %.1fs)\n\n", name, trials, time.Since(start).Seconds())
	}
	return nil
}

// emit renders a table to stdout and optionally as CSV.
func emit(t *sim.Table, csvDir, name string) error {
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if csvDir == "" {
		return nil
	}
	if err := os.MkdirAll(csvDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(csvDir, name+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	return t.RenderCSV(f)
}
