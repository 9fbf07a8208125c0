package main

// The benchmark ledger: the text output of `go test -bench` parsed into
// structured results, kept as labelled runs in a small JSON file, so the
// repository tracks its micro-benchmark baselines (ns/op, B/op, allocs/op)
// without external tooling.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	// Name is the benchmark name with the trailing GOMAXPROCS suffix
	// stripped (Benchmark prefix kept): "BenchmarkDijkstra500".
	Name string `json:"name"`
	// Procs is the -N suffix (GOMAXPROCS while the benchmark ran), 1 if
	// the line had none.
	Procs int `json:"procs"`
	// Iterations is b.N for the reported timing.
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are -1 when the run lacked -benchmem.
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	// Extra holds custom b.ReportMetric units (MB/s, flows/s, p99_ms, ...)
	// keyed by unit string; nil when the line carried none.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// parseBenchOutput reads `go test -bench` output and returns every benchmark result
// line, in input order. Non-benchmark lines (package headers, PASS/ok,
// subtest logs) are skipped. A line that starts like a benchmark but does
// not parse is an error — truncated output should fail loudly, not drop
// results.
func parseBenchOutput(r io.Reader) ([]benchResult, error) {
	var out []benchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A benchmark result needs at least "Name N ns/op-value ns/op";
		// a bare "BenchmarkFoo" with nothing after it is the start of a
		// verbose line and carries no data.
		if len(fields) < 2 {
			continue
		}
		res, err := parseBenchLine(fields)
		if err != nil {
			return nil, fmt.Errorf("bench output: %q: %w", line, err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench output: read: %w", err)
	}
	return out, nil
}

func parseBenchLine(fields []string) (benchResult, error) {
	res := benchResult{Procs: 1, BytesPerOp: -1, AllocsPerOp: -1}
	res.Name = fields[0]
	if i := strings.LastIndex(res.Name, "-"); i >= 0 {
		if p, err := strconv.Atoi(res.Name[i+1:]); err == nil && p > 0 {
			res.Procs = p
			res.Name = res.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return res, fmt.Errorf("iterations %q: %v", fields[1], err)
	}
	res.Iterations = iters
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			res.NsPerOp, err = strconv.ParseFloat(val, 64)
			seenNs = true
		case "B/op":
			res.BytesPerOp, err = strconv.ParseInt(val, 10, 64)
		case "allocs/op":
			res.AllocsPerOp, err = strconv.ParseInt(val, 10, 64)
		default:
			// MB/s and custom b.ReportMetric units land in Extra. A
			// non-numeric token pair is not an error — verbose benchmark
			// logs can trail arbitrary words after the counters.
			if v, perr := strconv.ParseFloat(val, 64); perr == nil {
				if res.Extra == nil {
					res.Extra = make(map[string]float64)
				}
				res.Extra[unit] = v
			}
			err = nil
		}
		if err != nil {
			return res, fmt.Errorf("%s %q: %v", unit, val, err)
		}
	}
	if !seenNs {
		return res, fmt.Errorf("no ns/op field")
	}
	return res, nil
}

// allocsRegressed reports whether cand allocates more objects per op than
// base by more than limit, a fraction of base's count. Allocation counts
// repeat exactly from run to run on deterministic code, so the limit can
// sit far below what ns/op needs. A result recorded without -benchmem
// (AllocsPerOp < 0) never regresses: there is nothing to compare.
func allocsRegressed(base, cand benchResult, limit float64) bool {
	if base.AllocsPerOp < 0 || cand.AllocsPerOp < 0 {
		return false
	}
	return float64(cand.AllocsPerOp) > float64(base.AllocsPerOp)*(1+limit)
}

// checkSameProcs refuses to compare two results that ran at different
// GOMAXPROCS: the server benchmarks scale with it and the embed benchmarks
// pay for goroutine fan-out according to it, so a delta between such a
// pair measures the machines, not the code.
func checkSameProcs(base, cand benchResult) error {
	if base.Procs != cand.Procs {
		return fmt.Errorf("%s ran at procs=%d in the baseline and procs=%d in the candidate; "+
			"results at different GOMAXPROCS are not comparable (re-record one side with -cpu)",
			cand.Name, base.Procs, cand.Procs)
	}
	return nil
}

// benchRun is one labelled benchmark sweep.
type benchRun struct {
	Label   string        `json:"label"`
	Results []benchResult `json:"results"`
}

// benchLedger is the on-disk JSON shape: one run per label, sorted by label for
// stable diffs.
type benchLedger struct {
	Runs []benchRun `json:"runs"`
}

// setRun inserts or replaces the run with the given label.
func (f *benchLedger) setRun(label string, results []benchResult) {
	for i := range f.Runs {
		if f.Runs[i].Label == label {
			f.Runs[i].Results = results
			return
		}
	}
	f.Runs = append(f.Runs, benchRun{Label: label, Results: results})
	sort.Slice(f.Runs, func(i, j int) bool { return f.Runs[i].Label < f.Runs[j].Label })
}

// lookup returns the run with the given label, if present.
func (f *benchLedger) lookup(label string) (benchRun, bool) {
	for _, r := range f.Runs {
		if r.Label == label {
			return r, true
		}
	}
	return benchRun{}, false
}

// decodeLedger reads a ledger previously written by encode.
func decodeLedger(r io.Reader) (*benchLedger, error) {
	var f benchLedger
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("bench ledger: decode: %w", err)
	}
	return &f, nil
}

// encode writes the ledger as indented JSON with a trailing newline, the
// format checked into the repository.
func (f *benchLedger) encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
