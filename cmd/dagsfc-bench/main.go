// Command dagsfc-bench regenerates the paper's evaluation (§5, Fig. 6(a)–(f))
// plus the runtime, optimality-gap and delay experiments, printing one
// table per figure. Results are averaged over -trials simulation instances
// per point (the paper uses 100) and are fully determined by -seed.
//
// Usage:
//
//	dagsfc-bench [-exp all|fig6a|...|runtime|gap|delay] [-trials N] [-seed S] [-csv DIR]
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

	"dagsfc/internal/core"
	"dagsfc/internal/diag"
	"dagsfc/internal/sim"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment to run: all, delay, topo, pareto, or one of "+strings.Join(sim.Names(), ", "))
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
		names = append(sim.Names(), "delay", "topo", "pareto")
	}
	for _, name := range names {
		if name == "delay" {
			if err := runDelay(trials, seed, csvDir); err != nil {
				return err
			}
			continue
		}
		if name == "topo" {
			points, err := sim.RunTopologies(trials, seed)
			if err != nil {
				return err
			}
			if err := emit(sim.TopoTable(points), csvDir, "topo"); err != nil {
				return err
			}
			continue
		}
		if name == "pareto" {
			points, err := sim.RunPareto(sim.DefaultParetoBounds(), trials, seed)
			if err != nil {
				return err
			}
			if err := emit(sim.ParetoTable(points), csvDir, "pareto"); err != nil {
				return err
			}
			continue
		}
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
		cost := sim.CostTable(e, points)
		if err := emit(cost, csvDir, name+"_cost"); err != nil {
			return err
		}
		if name == "runtime" || name == "gap" {
			if err := emit(sim.TimeTable(e, points), csvDir, name+"_time"); err != nil {
				return err
			}
		}
		if err := emit(sim.FailureTable(e, points), csvDir, name+"_failures"); err != nil {
			return err
		}
		printReductions(points, e)
		fmt.Printf("(%s: %d trials/point, %.1fs)\n\n", name, trials, time.Since(start).Seconds())
	}
	return nil
}

func runDelay(trials int, seed int64, csvDir string) error {
	points, err := sim.RunDelay([]int{3, 5, 7, 9}, trials, seed, core.DefaultDelayParams())
	if err != nil {
		return err
	}
	return emit(sim.DelayTable(points), csvDir, "delay")
}

// printReductions prints the paper's headline relative-improvement
// numbers for the figure just rendered.
func printReductions(points []sim.Point, e *sim.Experiment) {
	for _, pair := range [][2]sim.Algorithm{
		{sim.MBBE, sim.MINV},
		{sim.MBBE, sim.RANV},
		{sim.MBBE, sim.BBE},
		{sim.MBBE, sim.EXACT},
	} {
		if frac, ok := sim.Reduction(points, pair[0], pair[1]); ok {
			fmt.Printf("  %s vs %s: %.1f%% cheaper on average\n", pair[0], pair[1], 100*frac)
		}
	}
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
