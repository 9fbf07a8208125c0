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
//
// A second mode maintains the repo's micro-benchmark baseline file
// (`make bench-json`): -parse-bench reads raw `go test -bench -benchmem`
// output and merges it into a labelled JSON ledger:
//
//	dagsfc-bench -parse-bench bench.out -bench-label after -bench-out BENCH_PR31.json
//
// A third mode guards against hot-path regressions (`make bench-guard`):
// it prints the old->new ns/op delta of every benchmark the two ledgers
// share, then compares the "after" runs and exits non-zero when a guarded
// benchmark's ns/op regressed past -guard-limit, an embed-path benchmark's
// allocs/op rose more than 5%, or the warm path-cache
// embed lost its speedup floor:
//
//	dagsfc-bench -guard-old BENCH_PR29.json -guard-new BENCH_PR31.json
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dagsfc/internal/benchfmt"
	"dagsfc/internal/diag"
	"dagsfc/internal/latency"
	"dagsfc/internal/sim"
	"dagsfc/internal/tablefmt"
)

func main() {
	var (
		expName  = flag.String("exp", "all", "experiment to run: all, delay, topo, pareto, or one of "+strings.Join(sim.Names(), ", "))
		trials   = flag.Int("trials", sim.DefaultTrials, "simulation instances per point")
		seed     = flag.Int64("seed", 2018, "master seed")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		parallel = flag.Int("parallel", 1, "concurrent trials per point (results identical; timings noisier). The runtime experiment always runs sequentially")

		parseBench = flag.String("parse-bench", "", "parse raw `go test -bench` output from this file into the benchmark JSON ledger and exit (skips the experiment sweep)")
		benchLabel = flag.String("bench-label", "after", "run label to record the parsed benchmarks under")
		benchOut   = flag.String("bench-out", "", "benchmark JSON ledger to create or update (required with -parse-bench)")

		guardOld   = flag.String("guard-old", "", "baseline benchmark JSON ledger; with -guard-new, compare and exit non-zero on regression (skips the experiment sweep)")
		guardNew   = flag.String("guard-new", "", "candidate benchmark JSON ledger to check against -guard-old")
		guardLimit = flag.Float64("guard-limit", 0.20, "allowed fractional ns/op regression per guarded benchmark")
	)
	diag.Main("dagsfc-bench", func() error {
		if *guardOld != "" || *guardNew != "" {
			return guardBench(*guardOld, *guardNew, *guardLimit)
		}
		if *parseBench != "" {
			if *benchOut == "" {
				return fmt.Errorf("-parse-bench needs -bench-out: the ledger to create or update")
			}
			return mergeBench(*parseBench, *benchLabel, *benchOut)
		}
		return run(*expName, *trials, *seed, *csvDir, *parallel)
	})
}

// mergeBench parses raw benchmark output and upserts it as a labelled run
// in the JSON ledger, preserving every other label already recorded there.
func mergeBench(rawPath, label, outPath string) error {
	raw, err := os.Open(rawPath)
	if err != nil {
		return err
	}
	defer raw.Close()
	results, err := benchfmt.Parse(raw)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		return fmt.Errorf("no benchmark results in %s", rawPath)
	}

	ledger := &benchfmt.File{}
	if prev, err := os.Open(outPath); err == nil {
		ledger, err = benchfmt.Decode(prev)
		prev.Close()
		if err != nil {
			return err
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	ledger.SetRun(label, results)

	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := ledger.Encode(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d benchmarks under label %q in %s\n", len(results), label, outPath)
	return nil
}

// guardedBenchmarks are the hot-path benchmarks whose ns/op must not
// regress beyond -guard-limit between the baseline and candidate ledgers
// ("after" runs of each). They are the paths every embedding rides: the
// filtered Dijkstra, the full MBBE embed, and the serial-chain embed that is
// one layered search.
var guardedBenchmarks = []string{
	"BenchmarkDijkstra1000Filtered",
	"BenchmarkEmbedMBBE",
	"BenchmarkEmbedMBBESerial",
}

// renamedBenchmarks maps the name a baseline ledger may still record a
// benchmark under to its present one: the uncached MBBE embed was the
// workers=1 leg of a sweep until the intra-embed worker pool went.
var renamedBenchmarks = map[string]string{
	"BenchmarkEmbedMBBEWorkers/workers=1": "BenchmarkEmbedMBBE",
}

// allocGuardedBenchmarks are the embed-path benchmarks whose allocs/op must
// not rise more than allocGuardLimit over the baseline ledger: the whole
// MBBE embed cold, warm and warm under ledger churn, one layer's candidate
// generation, the BBE embed, the validate-commit-release path a placed
// flow walks through the ledger, and the fixed cost of a request around
// all of it — one admission and its release through the server, in-process
// (unprotected; protected: a primary and a banned backup search; durable:
// the WAL's records and fsync per commit) and over loopback HTTP. The counts repeat exactly on this code (the HTTP one
// to within an object or two of net/http's), so the limit is tight.
var allocGuardedBenchmarks = []string{
	"BenchmarkEmbedMBBE",
	"BenchmarkEmbedMBBECached",
	"BenchmarkEmbedMBBEChurn",
	"BenchmarkEmbedMBBESerial",
	"BenchmarkLayerExtensions",
	"BenchmarkEmbedBBE",
	"BenchmarkCommitRelease",
	"BenchmarkAdmitRelease",
	"BenchmarkAdmitReleaseProtected",
	"BenchmarkAdmitReleaseDurable",
	"BenchmarkAdmitReleaseHTTP",
}

const allocGuardLimit = 0.05

// cachedSpeedupFloor is the minimum warm-cache speedup the candidate must
// demonstrate: EmbedMBBECached must be at least this factor faster than
// the uncached EmbedMBBE in the same ledger.
const cachedSpeedupFloor = 1.5

// failoverSlowdownLimit bounds BenchmarkFailoverLatency's failover p99
// against the baseline ledger's own: promoting a pre-reserved backup may
// take at most this many times as long as it did there. The guard used to
// compare failover with the candidate's repair re-embed (p99 × 5, then × 3,
// against the repair p50), and had to be loosened every time an embed PR
// made the re-embed — the denominator — faster while failover had not
// moved. What is left of that comparison is its point: failing over must
// stay faster than re-embedding, or reserving double capacity stops paying.
// The factor absorbs host-to-host noise on a ~0.1 ms tail percentile.
const failoverSlowdownLimit = 2.0

// guardBench compares the "after" runs of two benchmark JSON ledgers and
// fails if any guarded benchmark regressed past the limit, or if the
// candidate's warm-cache embed lost its speedup floor. Machine-to-machine
// noise is why the guard compares ledgers produced on the same host (CI
// regenerates the candidate next to the committed baseline).
func guardBench(oldPath, newPath string, limit float64) error {
	if oldPath == "" || newPath == "" {
		return fmt.Errorf("-guard-old and -guard-new must both be set")
	}
	oldRun, err := loadAfterRun(oldPath)
	if err != nil {
		return err
	}
	newRun, err := loadAfterRun(newPath)
	if err != nil {
		return err
	}
	for i, r := range oldRun.Results {
		if now, ok := renamedBenchmarks[r.Name]; ok {
			oldRun.Results[i].Name = now
		}
	}
	byName := func(run benchfmt.Run, name string) (benchfmt.Result, bool) {
		for _, r := range run.Results {
			if r.Name == name {
				return r, true
			}
		}
		return benchfmt.Result{}, false
	}

	// Refuse unlike runs before printing a single delta: every benchmark
	// the two ledgers share must have run at the same GOMAXPROCS.
	for _, newRes := range newRun.Results {
		if oldRes, ok := byName(oldRun, newRes.Name); ok {
			if err := benchfmt.CheckSameProcs(oldRes, newRes); err != nil {
				return fmt.Errorf("%s vs %s: %w", oldPath, newPath, err)
			}
		}
	}

	// Informational deltas first: every benchmark both ledgers share, in
	// the candidate's order, so a guard run doubles as a performance
	// changelog between the two baselines. Guarded rows are starred.
	guarded := map[string]bool{}
	for _, name := range guardedBenchmarks {
		guarded[name] = true
	}
	fmt.Printf("bench deltas, after runs of %s -> %s (* = guarded):\n", oldPath, newPath)
	for _, newRes := range newRun.Results {
		oldRes, ok := byName(oldRun, newRes.Name)
		if !ok {
			continue
		}
		mark := " "
		if guarded[newRes.Name] {
			mark = "*"
		}
		fmt.Printf("  %s %-42s %12.0f -> %12.0f ns/op  %+6.1f%%\n",
			mark, newRes.Name, oldRes.NsPerOp, newRes.NsPerOp, (newRes.NsPerOp/oldRes.NsPerOp-1)*100)
	}

	var failures []string
	// pair looks a guarded benchmark up in both ledgers: one the baseline
	// predates is skipped, one the candidate lost is a failure.
	pair := func(name string) (oldRes, newRes benchfmt.Result, ok bool) {
		if oldRes, ok = byName(oldRun, name); !ok {
			fmt.Printf("guard: %-40s absent from baseline %s; skipping\n", name, oldPath)
			return
		}
		if newRes, ok = byName(newRun, name); !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from candidate %s", name, newPath))
		}
		return
	}
	for _, name := range guardedBenchmarks {
		oldRes, newRes, ok := pair(name)
		if !ok {
			continue
		}
		ratio := newRes.NsPerOp / oldRes.NsPerOp
		verdict := "ok"
		if ratio > 1+limit {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, limit %+.0f%%)",
				name, oldRes.NsPerOp, newRes.NsPerOp, (ratio-1)*100, limit*100))
		}
		fmt.Printf("guard: %-40s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n",
			name, oldRes.NsPerOp, newRes.NsPerOp, (ratio-1)*100, verdict)
	}
	for _, name := range allocGuardedBenchmarks {
		oldRes, newRes, ok := pair(name)
		if !ok {
			continue
		}
		verdict := "ok"
		if benchfmt.AllocsRegressed(oldRes, newRes, allocGuardLimit) {
			verdict = "REGRESSED"
			failures = append(failures, fmt.Sprintf("%s: %d -> %d allocs/op (limit %+.0f%%)",
				name, oldRes.AllocsPerOp, newRes.AllocsPerOp, allocGuardLimit*100))
		}
		fmt.Printf("guard: %-40s %12d -> %12d allocs/op  %s\n", name, oldRes.AllocsPerOp, newRes.AllocsPerOp, verdict)
	}

	uncached, okU := byName(newRun, "BenchmarkEmbedMBBE")
	cached, okC := byName(newRun, "BenchmarkEmbedMBBECached")
	if okU && okC {
		speedup := uncached.NsPerOp / cached.NsPerOp
		verdict := "ok"
		if speedup < cachedSpeedupFloor {
			verdict = "TOO SLOW"
			failures = append(failures, fmt.Sprintf("warm-cache speedup %.2fx below the %.1fx floor", speedup, cachedSpeedupFloor))
		}
		fmt.Printf("guard: warm path-cache embed speedup %.2fx (floor %.1fx)  %s\n", speedup, cachedSpeedupFloor, verdict)
	} else if !okC {
		failures = append(failures, fmt.Sprintf("BenchmarkEmbedMBBECached missing from candidate %s", newPath))
	}

	// The failover guard: failover p99 against the baseline's, and against
	// the candidate's own repair re-embed p50 (same host by construction).
	if fo, ok := byName(newRun, "BenchmarkFailoverLatency"); !ok {
		failures = append(failures, fmt.Sprintf("BenchmarkFailoverLatency missing from candidate %s", newPath))
	} else {
		p99, okP99 := fo.Extra["failover_p99_us"]
		p50, okP50 := fo.Extra["repair_p50_us"]
		oldFo, _ := byName(oldRun, "BenchmarkFailoverLatency")
		oldP99, okOld := oldFo.Extra["failover_p99_us"]
		var fail string
		switch {
		case !okP99 || !okP50:
			fail = "BenchmarkFailoverLatency lost its failover_p99_us/repair_p50_us metrics"
		case !okOld:
			fail = fmt.Sprintf("baseline %s records no failover_p99_us to guard against", oldPath)
		case p99 > oldP99*failoverSlowdownLimit:
			fail = fmt.Sprintf("failover p99 %.1fus is more than %.0fx the baseline's %.1fus", p99, failoverSlowdownLimit, oldP99)
		case p99 >= p50:
			fail = fmt.Sprintf("failover p99 %.1fus is no faster than the repair re-embed p50 %.1fus — backup promotion no faster than re-embedding", p99, p50)
		}
		verdict := "ok"
		if fail != "" {
			failures = append(failures, fail)
			verdict = "REGRESSED"
		}
		fmt.Printf("guard: failover p99 %.1fus vs baseline %.1fus (limit %.0fx) and repair p50 %.1fus  %s\n",
			p99, oldP99, failoverSlowdownLimit, p50, verdict)
	}

	if len(failures) > 0 {
		return fmt.Errorf("bench guard failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("bench guard passed")
	return nil
}

// loadAfterRun reads a benchmark ledger and returns its "after" run.
func loadAfterRun(path string) (benchfmt.Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return benchfmt.Run{}, err
	}
	defer f.Close()
	ledger, err := benchfmt.Decode(f)
	if err != nil {
		return benchfmt.Run{}, fmt.Errorf("%s: %w", path, err)
	}
	run, ok := ledger.Run("after")
	if !ok {
		return benchfmt.Run{}, fmt.Errorf("%s: no \"after\" run", path)
	}
	return run, nil
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
	points, err := sim.RunDelay([]int{3, 5, 7, 9}, trials, seed, latency.DefaultParams())
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
			fmt.Printf("  %s vs %s: %s cheaper on average\n", pair[0], pair[1], tablefmt.Pct(frac))
		}
	}
}

// emit renders a table to stdout and optionally as CSV.
func emit(t *tablefmt.Table, csvDir, name string) error {
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
