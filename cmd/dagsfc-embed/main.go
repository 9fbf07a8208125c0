// Command dagsfc-embed embeds one DAG-SFC into a network and prints the
// chosen assignment, paths and cost breakdown. The network is read from
// -net (the JSON of network.WriteJSON) or, without -net, generated from
// the paper's Table 2 distribution (500 nodes, 10 VNF categories) seeded
// by -seed.
//
// The SFC syntax is layers separated by ';' and parallel VNFs separated by
// ',': "1;2,3,4;5" is [f1] -> [f2|f3|f4 +m] -> [f5].
//
// Usage:
//
//	dagsfc-embed [-net net.json] -sfc "1;2,3" -src 0 -dst 42
//	             [-alg mbbe|bbe|minv|ranv|exact|ilp] [-rate 1] [-size 1] [-seed 1]
//	             [-dot sol.dot] [-o sol.json] [-trace-out trace.json] [-explain]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-metrics-out metrics.prom] [-debug-addr localhost:6060]
//
// -trace-out dumps the search as a JSON span tree and -explain renders the
// same trace human-readably on stderr (both mbbe/bbe only, the searches that
// trace themselves); see the Observability section of README.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/diag"
	"dagsfc/internal/exact"
	"dagsfc/internal/graph"
	"dagsfc/internal/ipmodel"
	"dagsfc/internal/netgen"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
)

func main() {
	var (
		netFile  = flag.String("net", "", "network JSON file (default: generate the Table 2 network from -seed)")
		sfcStr   = flag.String("sfc", "", "DAG-SFC, e.g. \"1;2,3,4;5\" (required)")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 0, "destination node")
		alg      = flag.String("alg", "mbbe", "algorithm: mbbe, bbe, minv, ranv, exact, ilp")
		rate     = flag.Float64("rate", 1, "flow delivery rate R")
		size     = flag.Float64("size", 1, "flow size z (cost scale)")
		seed     = flag.Int64("seed", 1, "seed for the generated network and ranv")
		dotFile  = flag.String("dot", "", "also write a Graphviz DOT rendering of the embedding")
		outFile  = flag.String("o", "", "also write the solution as JSON")
		traceOut = flag.String("trace-out", "", "write the search as a JSON span tree (mbbe/bbe only)")
		explain  = flag.Bool("explain", false, "print a human-readable rendering of the search trace (mbbe/bbe only)")
	)
	diag.Main("dagsfc-embed", func() error {
		return run(config{
			netFile: *netFile, sfcStr: *sfcStr, src: *src, dst: *dst, alg: *alg,
			rate: *rate, size: *size, seed: *seed, dotFile: *dotFile, outFile: *outFile,
			traceOut: *traceOut, explain: *explain,
		}, os.Stdout, os.Stderr)
	})
}

type config struct {
	netFile, sfcStr  string
	src, dst         int
	alg              string
	rate, size       float64
	seed             int64
	dotFile, outFile string
	explain          bool
	traceOut         string
}

// run embeds per c, printing the solution to stdout and the -explain
// rendering to stderr.
func run(c config, stdout, stderr io.Writer) error {
	net, err := netgen.Load(c.netFile, netgen.Default(), c.seed)
	if err != nil {
		return err
	}
	s, err := sfc.Parse(c.sfcStr)
	if err != nil {
		return err
	}
	p := &core.Problem{
		Net: net, SFC: s,
		Src: graph.NodeID(c.src), Dst: graph.NodeID(c.dst),
		Rate: c.rate, Size: c.size,
	}
	alg := strings.ToLower(c.alg)
	tracing := c.traceOut != "" || c.explain
	if tracing && alg != "mbbe" && alg != "bbe" {
		return fmt.Errorf("-trace-out/-explain need the layered search (mbbe or bbe), not %q", alg)
	}
	var trace *telemetry.Trace
	traced := func(opts core.Options) core.Options {
		if tracing {
			trace = telemetry.NewTrace("embed")
			opts.Trace = trace.Root()
		}
		return opts
	}
	var res *core.Result
	switch alg {
	case "mbbe":
		res, err = core.Embed(p, traced(core.MBBEOptions()))
	case "bbe":
		res, err = core.Embed(p, traced(core.BBEOptions()))
	case "minv":
		res, err = baseline.EmbedMINV(p)
	case "ranv":
		res, err = baseline.EmbedRANV(p, rand.New(rand.NewSource(c.seed)))
	case "exact":
		res, err = exact.Embed(p, exact.Limits{})
	case "ilp":
		res, err = ipmodel.Embed(p, ipmodel.Options{})
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}
	if trace != nil {
		trace.Finish()
		if werr := writeTrace(trace, c.traceOut, c.explain, stderr); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	printSolution(stdout, p, res)
	if c.dotFile != "" {
		f, err := os.Create(c.dotFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := writeDOT(f, p, res.Solution); err != nil {
			return err
		}
	}
	if c.outFile != "" {
		f, err := os.Create(c.outFile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := core.WriteSolutionJSON(f, p, res.Solution); err != nil {
			return err
		}
	}
	return nil
}

// writeTrace dumps the recorded span tree: JSON to -trace-out and, under
// -explain, a human-readable rendering to stderr (kept apart from the
// solution on stdout).
func writeTrace(trace *telemetry.Trace, traceOut string, explain bool, stderr io.Writer) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WriteJSON(f); err != nil {
			return err
		}
	}
	if explain {
		if err := trace.Render(stderr); err != nil {
			return err
		}
	}
	return nil
}

func printSolution(w io.Writer, p *core.Problem, res *core.Result) {
	g := p.Net.G
	fmt.Fprintf(w, "SFC %s embedded %d -> %d\n", p.SFC.String(), p.Src, p.Dst)
	for li, le := range res.Solution.Layers {
		spec := p.SFC.Layers[li]
		fmt.Fprintf(w, "layer %d:\n", li+1)
		for i, node := range le.Nodes {
			fmt.Fprintf(w, "  f(%d) @ node %d  inter-path %s\n", spec.VNFs[i], node, le.InterPaths[i].String(g))
		}
		if spec.Parallel() {
			fmt.Fprintf(w, "  merger @ node %d\n", le.MergerNode)
			for i, path := range le.InnerPaths {
				fmt.Fprintf(w, "  inner-path f(%d): %s\n", spec.VNFs[i], path.String(g))
			}
		}
	}
	fmt.Fprintf(w, "tail: %s\n", res.Solution.TailPath.String(g))
	fmt.Fprintf(w, "cost: total %.3f (VNF %.3f + links %.3f)\n",
		res.Cost.Total(), res.Cost.VNFCost, res.Cost.LinkCost)
	delay := core.EvaluateDelay(p, res.Solution, core.DefaultDelayParams())
	fmt.Fprintf(w, "end-to-end delay (default model): %.3f\n", delay)
}
