package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/exact"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

// lineProblem is a network small enough for every algorithm, ilp included:
//
//	0 --1-- 1 --2-- 2 --3-- 3        (link prices)
//
// with f(1)@1 ($10), f(2)@2 ($20), f(3)@1 ($30) and a merger @2, and the SFC
// [f1] -> [f2|f3 +m] from 0 to 3.
func lineProblem() *core.Problem {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 2, 10)
	g.MustAddEdge(2, 3, 3, 10)
	net := network.New(g, network.Catalog{N: 3})
	net.MustAddInstance(1, 1, 10, 10)
	net.MustAddInstance(2, 2, 20, 10)
	net.MustAddInstance(1, 3, 30, 10)
	net.MustAddInstance(2, network.VNFID(4), 5, 10)
	s, err := sfc.Parse("1;2,3")
	if err != nil {
		panic(err)
	}
	return &core.Problem{Net: net, SFC: s, Src: 0, Dst: 3, Rate: 1, Size: 1}
}

// TestRunEveryAlgorithm runs the command once per -alg on a network file
// and reads both of its outputs back: the -o solution through
// core.ReadSolutionJSON and core.Validate, the -dot rendering as one
// Graphviz graph.
func TestRunEveryAlgorithm(t *testing.T) {
	dir := t.TempDir()
	p := lineProblem()
	netFile := filepath.Join(dir, "net.json")
	f, err := os.Create(netFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Net.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"mbbe", "bbe", "minv", "ranv", "exact", "ilp"} {
		t.Run(alg, func(t *testing.T) {
			out, dot := filepath.Join(dir, alg+".json"), filepath.Join(dir, alg+".dot")
			err := run(config{netFile: netFile, sfcStr: "1;2,3", src: 0, dst: 3, alg: alg,
				rate: 1, size: 1, seed: 1, outFile: out, dotFile: dot}, io.Discard, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			readSolution(t, p, out)
			text, err := os.ReadFile(dot)
			if err != nil {
				t.Fatal(err)
			}
			if s := string(text); !strings.HasPrefix(s, "graph dagsfc {\n") || !strings.HasSuffix(s, "\n}\n") ||
				strings.Count(s, "{") != 1 {
				t.Fatalf("-dot wrote no single graph dagsfc { … } block:\n%s", s)
			}
		})
	}
}

// TestRunGeneratesNetworkWithoutNet: without -net the command embeds on the
// Table 2 network its -seed generates, whose 500 nodes -alg exact refuses
// before it solves anything.
func TestRunGeneratesNetworkWithoutNet(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sol.json")
	c := config{sfcStr: "1;2,3;4", src: 0, dst: 42, alg: "exact", rate: 1, size: 1, seed: 3, outFile: out}
	var stdout bytes.Buffer
	if err := run(c, &stdout, io.Discard); !errors.Is(err, exact.ErrTooLarge) {
		t.Fatalf("-alg exact on the 500-node network: err = %v, want exact.ErrTooLarge", err)
	}
	if _, err := os.Stat(out); !errors.Is(err, fs.ErrNotExist) || stdout.Len() > 0 {
		t.Fatalf("refused -alg exact still wrote a solution (stat err %v, stdout %q)", err, stdout.String())
	}
	c.alg = "mbbe"
	if err := run(c, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	net, err := netgen.Load("", netgen.Default(), 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sfc.Parse("1;2,3;4")
	if err != nil {
		t.Fatal(err)
	}
	readSolution(t, &core.Problem{Net: net, SFC: s, Src: 0, Dst: 42, Rate: 1, Size: 1}, out)
}

// traceSpan is the -trace-out schema, one span.
type traceSpan struct {
	Name       string         `json:"name"`
	StartUs    int64          `json:"start_us"`
	DurationUs int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs"`
	Children   []traceSpan    `json:"children"`
}

// checkNested fails unless every descendant of s lies inside its parent's
// interval.
func checkNested(t *testing.T, s traceSpan) {
	t.Helper()
	for _, c := range s.Children {
		if c.StartUs < s.StartUs || c.StartUs+c.DurationUs > s.StartUs+s.DurationUs {
			t.Fatalf("%s [%d, +%d] µs lies outside its parent %s [%d, +%d]",
				c.Name, c.StartUs, c.DurationUs, s.Name, s.StartUs, s.DurationUs)
		}
		checkNested(t, c)
	}
}

// TestRunTraceFlags drives -trace-out and -explain on the generated Table 2
// network: the file decodes with the documented schema, holds one layer row
// per SFC layer and nests every span inside its parent; -explain writes the
// outline to stderr and leaves stdout as it is without it; and the searches
// that do not trace themselves refuse both flags.
func TestRunTraceFlags(t *testing.T) {
	dir := t.TempDir()
	base := config{sfcStr: "1;2,3,4;5", src: 0, dst: 42, rate: 1, size: 1, seed: 3}
	for _, alg := range []string{"mbbe", "bbe"} {
		t.Run(alg, func(t *testing.T) {
			c := base
			c.alg = alg
			var plain strings.Builder
			if err := run(c, &plain, io.Discard); err != nil {
				t.Fatal(err)
			}
			c.traceOut, c.explain = filepath.Join(dir, alg+".json"), true
			var stdout, stderr strings.Builder
			if err := run(c, &stdout, &stderr); err != nil {
				t.Fatal(err)
			}
			if stdout.String() != plain.String() {
				t.Fatalf("-explain changed stdout:\n%s\nwithout it:\n%s", stdout.String(), plain.String())
			}
			if !strings.HasPrefix(stderr.String(), "embed alg="+alg+" ") || !strings.Contains(stderr.String(), "\n  - layer 3 ") {
				t.Fatalf("-explain wrote no outline to stderr:\n%s", stderr.String())
			}
			text, err := os.ReadFile(c.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(bytes.NewReader(text))
			dec.DisallowUnknownFields()
			var root traceSpan
			if err := dec.Decode(&root); err != nil {
				t.Fatal(err)
			}
			var layers []string
			for _, c := range root.Children {
				if strings.HasPrefix(c.Name, "layer ") {
					layers = append(layers, c.Name)
				}
			}
			if root.Name != "embed" || root.Attrs["alg"] != alg || !slices.Equal(layers, []string{"layer 1", "layer 2", "layer 3"}) {
				t.Fatalf("trace root %q (alg %v) with layer rows %q, want embed/%s and one row per layer", root.Name, root.Attrs["alg"], layers, alg)
			}
			checkNested(t, root)
		})
	}
	c := base
	c.alg, c.explain = "minv", true
	if err := run(c, io.Discard, io.Discard); err == nil || !strings.Contains(err.Error(), "need the layered search") {
		t.Fatalf("-alg minv -explain: %v, want the layered-search refusal", err)
	}
}

// readSolution reads the solution file back against p and validates it.
func readSolution(t *testing.T, p *core.Problem, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sol, err := core.ReadSolutionJSON(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(p, sol); err != nil {
		t.Fatalf("-o wrote an invalid solution: %v", err)
	}
}

// lineDOT renders lineProblem with its MBBE embedding.
func lineDOT(t *testing.T) string {
	t.Helper()
	p := lineProblem()
	res, err := core.EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := writeDOT(&b, p, res.Solution); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestWriteDOTNetworkLabels checks the network side of the rendering: nodes
// carry their hosted instances and prices, links their prices.
func TestWriteDOTNetworkLabels(t *testing.T) {
	out := lineDOT(t)
	for _, want := range []string{
		"graph dagsfc {",
		"n0 --",
		"f1:10", "f2:20", // hosted instances with their prices
		`label="2"`, // link price
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	if !strings.HasPrefix(out, "graph dagsfc {\n") || !strings.HasSuffix(out, "}\n") {
		t.Fatalf("DOT is not one graph block:\n%s", out)
	}
}

func TestWriteDOTWithSolution(t *testing.T) {
	out := lineDOT(t)
	for _, want := range []string{
		"rents",           // rented node annotation
		"fillcolor",       // rented node fill
		"color=red",       // inter-layer path
		"color=darkgreen", // tail path or src/dst
		"invhouse",        // source marker
		`\n[rents f2+m]`,  // the merger is labeled "m"
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{1: "1", 2.5: "2.5", 3.25: "3.25", 10.1: "10.1"}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Fatalf("trimFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
