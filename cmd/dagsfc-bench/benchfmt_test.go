package main

import (
	"bytes"
	"strings"
	"testing"
)

const benchSample = `goos: linux
goarch: amd64
pkg: dagsfc/internal/graph
cpu: Shared vCPU
BenchmarkDijkstra500-8   	    4096	    283203 ns/op	   90112 B/op	      27 allocs/op
BenchmarkBFSFrontiers500-8	   10000	     51234 ns/op	    8192 B/op	       5 allocs/op
BenchmarkNoMem-8         	     100	  10000000 ns/op
BenchmarkThroughput-8    	     500	   2000000 ns/op	         52.0 MB/s	  1024 B/op	  12 allocs/op
PASS
ok  	dagsfc/internal/graph	4.2s
`

func TestParse(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader(benchSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4", len(got))
	}
	d := got[0]
	if d.Name != "BenchmarkDijkstra500" || d.Procs != 8 {
		t.Fatalf("name/procs = %q/%d", d.Name, d.Procs)
	}
	if d.Iterations != 4096 || d.NsPerOp != 283203 || d.BytesPerOp != 90112 || d.AllocsPerOp != 27 {
		t.Fatalf("metrics = %+v", d)
	}
	if nm := got[2]; nm.BytesPerOp != -1 || nm.AllocsPerOp != -1 {
		t.Fatalf("missing -benchmem fields should be -1, got %+v", nm)
	}
	if th := got[3]; th.BytesPerOp != 1024 || th.AllocsPerOp != 12 {
		t.Fatalf("MB/s line not skipped correctly: %+v", th)
	}
	if th := got[3]; th.Extra["MB/s"] != 52.0 {
		t.Fatalf("MB/s not recorded in Extra: %+v", th.Extra)
	}
	if d := got[0]; d.Extra != nil {
		t.Fatalf("line without custom units grew an Extra map: %+v", d.Extra)
	}
}

func TestParseExtraUnits(t *testing.T) {
	line := "BenchmarkServeThroughput-8\t2000\t811000 ns/op\t1233 flows/s\t4.2 p99_ms\t512 B/op\t9 allocs/op\n"
	got, err := parseBenchOutput(strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	r := got[0]
	if r.Extra["flows/s"] != 1233 || r.Extra["p99_ms"] != 4.2 {
		t.Fatalf("Extra = %+v, want flows/s=1233 p99_ms=4.2", r.Extra)
	}
	if r.BytesPerOp != 512 || r.AllocsPerOp != 9 || r.NsPerOp != 811000 {
		t.Fatalf("standard units mis-parsed alongside Extra: %+v", r)
	}

	var f benchLedger
	f.setRun("after", got)
	var buf bytes.Buffer
	if err := f.encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := back.lookup("after")
	if r2.Results[0].Extra["flows/s"] != 1233 {
		t.Fatalf("Extra lost in round trip: %+v", r2.Results[0])
	}
}

func TestParseNoProcsSuffix(t *testing.T) {
	got, err := parseBenchOutput(strings.NewReader("BenchmarkFoo\t100\t50.5 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Name != "BenchmarkFoo" || got[0].Procs != 1 || got[0].NsPerOp != 50.5 {
		t.Fatalf("got %+v", got[0])
	}
}

func TestParseMalformedFails(t *testing.T) {
	if _, err := parseBenchOutput(strings.NewReader("BenchmarkBad\tnot-a-number\t10 ns/op\n")); err == nil {
		t.Fatal("malformed iteration count parsed without error")
	}
	if _, err := parseBenchOutput(strings.NewReader("BenchmarkBad\t100\t10 widgets\n")); err == nil {
		t.Fatal("line without ns/op parsed without error")
	}
}

func TestFileRoundTripAndSetRun(t *testing.T) {
	var f benchLedger
	f.setRun("before", []benchResult{{Name: "BenchmarkX", Procs: 8, Iterations: 10, NsPerOp: 100, BytesPerOp: 64, AllocsPerOp: 2}})
	f.setRun("after", []benchResult{{Name: "BenchmarkX", Procs: 8, Iterations: 20, NsPerOp: 50, BytesPerOp: 32, AllocsPerOp: 0}})
	// Replacing a label must not duplicate it.
	f.setRun("after", []benchResult{{Name: "BenchmarkX", Procs: 8, Iterations: 30, NsPerOp: 40, BytesPerOp: 32, AllocsPerOp: 0}})
	if len(f.Runs) != 2 {
		t.Fatalf("runs = %d, want 2", len(f.Runs))
	}
	if f.Runs[0].Label != "after" || f.Runs[1].Label != "before" {
		t.Fatalf("labels not sorted: %q, %q", f.Runs[0].Label, f.Runs[1].Label)
	}

	var buf bytes.Buffer
	if err := f.encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := decodeLedger(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r, ok := back.lookup("after")
	if !ok || r.Results[0].NsPerOp != 40 {
		t.Fatalf("round trip lost data: %+v ok=%v", r, ok)
	}
}

func TestAllocsRegressed(t *testing.T) {
	res := func(allocs int64) benchResult { return benchResult{AllocsPerOp: allocs} }
	cases := []struct {
		name       string
		base, cand int64
		want       bool
	}{
		{"equal", 200, 200, false},
		{"fewer", 7256, 212, false},
		{"within the limit", 200, 210, false},
		{"past the limit", 200, 211, true},
		{"from zero", 0, 1, true},
		{"zero stays zero", 0, 0, false},
		{"baseline lacks -benchmem", -1, 9999, false},
		{"candidate lacks -benchmem", 200, -1, false},
	}
	for _, c := range cases {
		if got := allocsRegressed(res(c.base), res(c.cand), 0.05); got != c.want {
			t.Errorf("%s: allocsRegressed(%d -> %d, 5%%) = %v, want %v", c.name, c.base, c.cand, got, c.want)
		}
	}
}

// TestCheckSameProcs pins the guard's refusal to diff unlike runs: the
// committed ledgers already disagree (BENCH_PR10.json was recorded at
// procs 1, BENCH_PR15.json at procs 2), and a delta between such a pair
// says nothing about the code.
func TestCheckSameProcs(t *testing.T) {
	base := benchResult{Name: "BenchmarkServeThroughput", Procs: 1, NsPerOp: 1.7e6}
	cand := benchResult{Name: "BenchmarkServeThroughput", Procs: 2, NsPerOp: 1.1e6}
	err := checkSameProcs(base, cand)
	if err == nil {
		t.Fatal("procs 1 vs procs 2 accepted as comparable")
	}
	for _, want := range []string{"BenchmarkServeThroughput", "procs=1", "procs=2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	cand.Procs = 1
	if err := checkSameProcs(base, cand); err != nil {
		t.Fatalf("equal procs refused: %v", err)
	}
}
