// Command benchmark is the repository's one repeatable performance
// benchmark: four closed-loop workloads over the library and the serving
// stack, five gated end-to-end metrics and four timings reported as
// medians of five measured rounds, and a separate traced pass that
// attributes time to the layers (http, sfc, core, graph, network, server,
// wal, journal, proc) from outside the program. README.md in this
// directory is the manual.
//
//	bash benchmark/run.sh --workload embed-parallel --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh            # all four workloads, measured then traced
//	bash benchmark/run.sh -aa 5      # repeatability: 2×5 runs, sets A/B compared
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload in this process and end with the result as one JSON line; empty runs all four, each in a child process")
		seed     = flag.Int64("seed", 1, "seed of the request stream and fault schedule")
		seconds  = flag.Int("seconds", refSeconds, "how long the five measured rounds last together on the code the benchmark was sized on; scales the fixed op counts")
		trace    = flag.Int("trace", 0, "0: measured rounds, end-to-end metrics; 1: traced pass, per-layer metrics")
		out      = flag.String("out", defaultOut(), "directory for trace files and scratch WAL directories")
		aa       = flag.Int("aa", 0, "repeatability mode: run every workload 2×N times on the same seed, alternating sets A and B, and compare")
		smoke    = flag.Bool("smoke", false, "1/50 of the op count: exercises every check, measures nothing")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: benchmark [-workload name] [-seed n] [-seconds 1..60] [-trace 0|1] [-out dir] [-aa n] [-smoke]")
		os.Exit(2)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *workload != "":
		sp, ok := specByName(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runWorkload(os.Stdout, sp.scaled(*seconds, *smoke), *seed, *trace == 1, *out)
		if err != nil {
			fatal(err)
		}
		if res.Timings != nil {
			line, err := json.Marshal(res.Timings)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("%s%s\n", timingsPrefix, line)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			os.Exit(1)
		}
	case *aa > 0:
		if err := runAA(os.Stdout, *aa, childArgs(*seconds, *smoke, *out), *seed); err != nil {
			fatal(err)
		}
	default:
		for _, sp := range specs {
			for _, tr := range []int{0, 1} {
				args := append(childArgs(*seconds, *smoke, *out),
					"-workload", sp.Name, "-seed", strconv.FormatInt(*seed, 10), "-trace", strconv.Itoa(tr))
				if _, err := runChild(os.Stdout, args); err != nil {
					fatal(fmt.Errorf("%s: %w", sp.Name, err))
				}
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// defaultOut keeps generated files under the benchmark's own directory
// whether the command is started from the repo root or from benchmark/.
func defaultOut() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

func childArgs(seconds int, smoke bool, out string) []string {
	args := []string{"-seconds", strconv.Itoa(seconds), "-out", out}
	if smoke {
		args = append(args, "-smoke")
	}
	return args
}

// result is the JSON object a single-workload run ends with. Attempted
// counts admission attempts. Failed counts the ones that malfunctioned
// (5xx, 409, 429, timeout, a failed release or fault call); an admission
// the program correctly refused because no placement exists is an
// outcome, and shows in accept_ratio.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Timings are the ungated timings of an untraced run. They are not
	// part of the result line; a child prints them on the line before it,
	// for -aa to read.
	Timings map[string]float64 `json:"-"`
}

const timingsPrefix = "timings "

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runChild runs this binary again with args — every workload gets a fresh
// process, so heap_live_mb and setup_s do not depend on what ran before —
// copies its standard output to w, waits for it, and returns the result
// line it ended with.
func runChild(w io.Writer, args []string) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(w, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("child's last line is not a result: %w", err)
	}
	if n := len(lines); n > 1 && strings.HasPrefix(lines[n-2], timingsPrefix) {
		if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[n-2], timingsPrefix)), &res.Timings); err != nil {
			return result{}, fmt.Errorf("child's timings line: %w", err)
		}
	}
	return res, nil
}

// runWorkload runs one workload in this process: set-ups, measured
// rounds, the cross-round and recovery checks and, when traced, the
// traced pass. A returned error means the run could not be completed; a
// failed correctness check that leaves the numbers meaningful is reported
// through result.Correct.
func runWorkload(w io.Writer, sp spec, seed int64, traced bool, outDir string) (result, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	in, err := generate(sp, seed)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "workload %s: seed %d, %d ops/round, %d closed-loop client(s), %d standing flows/client, GOMAXPROCS %d\n",
		sp.Name, seed, sp.Ops, sp.Clients, sp.Standing, procs)

	// The traced run needs the untraced figures as the e2e.* timings and
	// as the base of proc.* and of the tracing overhead: one set-up,
	// three rounds.
	nSetups, nRounds := setups, rounds
	if traced {
		nSetups, nRounds = 1, 3
	}
	m, r, err := measure(sp, in, outDir, nSetups, nRounds)
	if err != nil {
		return result{}, err
	}
	defer func() {
		if r != nil {
			_ = r.close() // an error path is already being reported
		}
	}()
	for i, s := range m.Setups {
		fmt.Fprintf(w, "  set-up %d: %.3f s\n", i+1, s)
	}
	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for i, rd := range m.Rounds {
		fmt.Fprintf(w, "  round %d: %.2f s, %d/%d accepted, %d errors, p50 %.3f ms, p99 %.3f ms, %.1f admits/s\n",
			i+1, rd.Wall.Seconds(), rd.Accepted, rd.Ops, rd.Errors, rd.p50(), rd.p99(), rd.admitsPerS())
		res.Attempted += rd.Ops
		res.Failed += rd.Errors
	}
	problems := crossRoundChecks(sp, m.Rounds)

	var lr *layerReport
	if traced {
		if lr, err = tracedPass(sp, in, r, m, outDir); err != nil {
			return result{}, err
		}
	}
	if sr, ok := r.(*serveRunner); ok && sp.WAL {
		ms, records, err := sr.recoveryCheck(in.Ops)
		if err != nil {
			problems = append(problems, err.Error())
		} else if lr != nil {
			lr.set("wal.recover_ms", ms)
			lr.set("wal.recover_records", records)
		}
	}
	err = r.close()
	r = nil
	if err != nil {
		return result{}, err
	}

	tv := timingValues(m)
	if traced {
		for name, v := range tv {
			lr.set(name, v)
		}
		lr.print(w)
		fmt.Fprintf(w, "per-layer metrics (%d spans, traced pass; e2e.* median of %d untraced rounds; 0 = layer bypassed by this workload)\n", lr.spans, len(m.Rounds))
		for _, d := range perLayer {
			v := lr.values[d.Name]
			res.Metrics[d.Name] = metricValue{v, d.Unit}
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v, d.Unit)
		}
	} else {
		fmt.Fprintf(w, "end-to-end metrics (median of %d rounds; set-up median of %d)\n", len(m.Rounds), len(m.Setups))
		vals := endToEndValues(m)
		for _, d := range endToEnd {
			res.Metrics[d.Name] = metricValue{vals[d.Name], d.Unit}
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", d.Name, vals[d.Name], d.Unit)
		}
		fmt.Fprintf(w, "timings, not gated (median of %d rounds; %d latency samples per round, %d beyond p99)\n",
			len(m.Rounds), sp.Ops, sp.Ops/100)
		for _, d := range timings {
			fmt.Fprintf(w, "  %-18s %14.4f %s\n", d.Name, tv[d.Name], d.Unit)
		}
		res.Timings = tv
	}
	for _, p := range problems {
		res.Correct = false
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	return res, nil
}

// crossRoundChecks compares the rounds of one run with each other. They
// replay the same ops from the same empty ledger, so on the library
// workloads (one goroutine, deterministic search) acceptance, every cost
// and every search count must repeat bit for bit; on serve-durable (ample
// capacity, so placements do not depend on how the two clients
// interleave) every cost must.
func crossRoundChecks(sp spec, rs []roundResult) []string {
	var problems []string
	for i, r := range rs {
		if r.Errors > 0 {
			problems = append(problems, fmt.Sprintf("round %d: %d operations failed with something other than a refusal for want of a placement", i+1, r.Errors))
		}
		if i == 0 || sp.FaultEvery > 0 {
			continue
		}
		for k, c := range r.Costs {
			if c != rs[0].Costs[k] {
				problems = append(problems, fmt.Sprintf("round %d: op %d cost %v, %v in round 1", i+1, k, c, rs[0].Costs[k]))
				break
			}
		}
		if r.Accepted != rs[0].Accepted {
			problems = append(problems, fmt.Sprintf("round %d: %d accepted, %d in round 1", i+1, r.Accepted, rs[0].Accepted))
		}
		if !sp.Serve && r.Stats != rs[0].Stats {
			problems = append(problems, fmt.Sprintf("round %d: search counts %+v differ from round 1 %+v", i+1, r.Stats, rs[0].Stats))
		}
	}
	return problems
}
