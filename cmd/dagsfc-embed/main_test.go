package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dagsfc/internal/core"
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
	for _, alg := range []string{"mbbe", "bbe", "minv", "ranv", "exact", "ilp", "sa"} {
		t.Run(alg, func(t *testing.T) {
			out, dot := filepath.Join(dir, alg+".json"), filepath.Join(dir, alg+".dot")
			err := run(config{netFile: netFile, sfcStr: "1;2,3", src: 0, dst: 3, alg: alg,
				rate: 1, size: 1, seed: 1, outFile: out, dotFile: dot})
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
// Table 2 network its -seed generates.
func TestRunGeneratesNetworkWithoutNet(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sol.json")
	if err := run(config{sfcStr: "1;2,3;4", src: 0, dst: 42, alg: "mbbe", rate: 1, size: 1, seed: 3, outFile: out}); err != nil {
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
