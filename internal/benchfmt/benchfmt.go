// Package benchfmt parses the text output of `go test -bench` into
// structured results and maintains a small labelled-run JSON file, so the
// repo can track benchmark baselines (ns/op, B/op, allocs/op) across PRs
// without external tooling.
package benchfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
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

// Parse reads `go test -bench` output and returns every benchmark result
// line, in input order. Non-benchmark lines (package headers, PASS/ok,
// subtest logs) are skipped. A line that starts like a benchmark but does
// not parse is an error — truncated output should fail loudly, not drop
// results.
func Parse(r io.Reader) ([]Result, error) {
	var out []Result
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
		res, err := parseLine(fields)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: %q: %w", line, err)
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchfmt: read: %w", err)
	}
	return out, nil
}

func parseLine(fields []string) (Result, error) {
	res := Result{Procs: 1, BytesPerOp: -1, AllocsPerOp: -1}
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

// AllocsRegressed reports whether cand allocates more objects per op than
// base by more than limit, a fraction of base's count. Allocation counts
// repeat exactly from run to run on deterministic code, so the limit can
// sit far below what ns/op needs. A result recorded without -benchmem
// (AllocsPerOp < 0) never regresses: there is nothing to compare.
func AllocsRegressed(base, cand Result, limit float64) bool {
	if base.AllocsPerOp < 0 || cand.AllocsPerOp < 0 {
		return false
	}
	return float64(cand.AllocsPerOp) > float64(base.AllocsPerOp)*(1+limit)
}

// CheckSameProcs refuses to compare two results that ran at different
// GOMAXPROCS: the server benchmarks scale with it and the embed benchmarks
// pay for goroutine fan-out according to it, so a delta between such a
// pair measures the machines, not the code.
func CheckSameProcs(base, cand Result) error {
	if base.Procs != cand.Procs {
		return fmt.Errorf("benchfmt: %s ran at procs=%d in the baseline and procs=%d in the candidate; "+
			"results at different GOMAXPROCS are not comparable (re-record one side with -cpu)",
			cand.Name, base.Procs, cand.Procs)
	}
	return nil
}

// Run is one labelled benchmark sweep.
type Run struct {
	Label   string   `json:"label"`
	Results []Result `json:"results"`
}

// File is the on-disk JSON shape: one run per label, sorted by label for
// stable diffs.
type File struct {
	Runs []Run `json:"runs"`
}

// SetRun inserts or replaces the run with the given label.
func (f *File) SetRun(label string, results []Result) {
	for i := range f.Runs {
		if f.Runs[i].Label == label {
			f.Runs[i].Results = results
			return
		}
	}
	f.Runs = append(f.Runs, Run{Label: label, Results: results})
	sort.Slice(f.Runs, func(i, j int) bool { return f.Runs[i].Label < f.Runs[j].Label })
}

// Run returns the run with the given label, if present.
func (f *File) Run(label string) (Run, bool) {
	for _, r := range f.Runs {
		if r.Label == label {
			return r, true
		}
	}
	return Run{}, false
}

// Decode reads a File previously written by Encode.
func Decode(r io.Reader) (*File, error) {
	var f File
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("benchfmt: decode: %w", err)
	}
	return &f, nil
}

// Encode writes the file as indented JSON with a trailing newline, the
// format checked into the repo.
func (f *File) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f)
}
