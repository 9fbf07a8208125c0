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
//	             [-alg mbbe|bbe|minv|ranv|exact|ilp|sa] [-rate 1] [-size 1] [-seed 1]
//	             [-dot sol.dot] [-o sol.json] [-trace-out trace.json] [-explain] [-v]
//	             [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	             [-metrics-out metrics.prom] [-debug-addr localhost:6060]
//
// -trace-out dumps the search as a JSON span tree and -explain renders the
// same trace human-readably (both mbbe/bbe only, where the layered search
// emits Observer events); see the Observability section of README.md.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"dagsfc/internal/anneal"
	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/diag"
	"dagsfc/internal/exact"
	"dagsfc/internal/graph"
	"dagsfc/internal/ipmodel"
	"dagsfc/internal/netgen"
	"dagsfc/internal/sfc"
)

func main() {
	var (
		netFile  = flag.String("net", "", "network JSON file (default: generate the Table 2 network from -seed)")
		sfcStr   = flag.String("sfc", "", "DAG-SFC, e.g. \"1;2,3,4;5\" (required)")
		src      = flag.Int("src", 0, "source node")
		dst      = flag.Int("dst", 0, "destination node")
		alg      = flag.String("alg", "mbbe", "algorithm: mbbe, bbe, minv, ranv, exact, ilp, sa")
		rate     = flag.Float64("rate", 1, "flow delivery rate R")
		size     = flag.Float64("size", 1, "flow size z (cost scale)")
		seed     = flag.Int64("seed", 1, "seed for the generated network, ranv and sa")
		dotFile  = flag.String("dot", "", "also write a Graphviz DOT rendering of the embedding")
		outFile  = flag.String("o", "", "also write the solution as JSON")
		verbose  = flag.Bool("v", false, "trace the search (layer/search progress to stderr; mbbe/bbe only)")
		traceOut = flag.String("trace-out", "", "write the search as a JSON span tree (mbbe/bbe only)")
		explain  = flag.Bool("explain", false, "print a human-readable rendering of the search trace (mbbe/bbe only)")
	)
	diag.Main("dagsfc-embed", func() error {
		return run(config{
			netFile: *netFile, sfcStr: *sfcStr, src: *src, dst: *dst, alg: *alg,
			rate: *rate, size: *size, seed: *seed, dotFile: *dotFile, outFile: *outFile,
			verbose: *verbose, traceOut: *traceOut, explain: *explain,
		})
	})
}

type config struct {
	netFile, sfcStr  string
	src, dst         int
	alg              string
	rate, size       float64
	seed             int64
	dotFile, outFile string
	verbose, explain bool
	traceOut         string
}

func run(c config) error {
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
	var recorder *core.TraceRecorder
	if tracing {
		if alg != "mbbe" && alg != "bbe" {
			return fmt.Errorf("-trace-out/-explain need the layered search (mbbe or bbe), not %q", alg)
		}
		recorder = core.NewTraceRecorder(alg)
	}
	observed := func(opts core.Options) core.Options {
		var obs core.MultiObserver
		if recorder != nil {
			obs = append(obs, recorder)
		}
		if c.verbose {
			obs = append(obs, logObserver{})
		}
		if len(obs) > 0 {
			opts.Observer = obs
		}
		return opts
	}
	var res *core.Result
	switch alg {
	case "mbbe":
		res, err = core.Embed(p, observed(core.MBBEOptions()))
	case "bbe":
		res, err = core.Embed(p, observed(core.BBEOptions()))
	case "minv":
		res, err = baseline.EmbedMINV(p)
	case "ranv":
		res, err = baseline.EmbedRANV(p, rand.New(rand.NewSource(c.seed)))
	case "exact":
		res, err = exact.Embed(p, exact.Limits{})
	case "ilp":
		res, err = ipmodel.Embed(p, ipmodel.Options{})
	case "sa", "anneal":
		res, err = anneal.Embed(p, rand.New(rand.NewSource(c.seed)), anneal.Options{})
	default:
		return fmt.Errorf("unknown algorithm %q", alg)
	}
	if recorder != nil {
		recorder.Finish(res, err)
		if werr := writeTrace(recorder, c.traceOut, c.explain); werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return err
	}
	if c.verbose {
		fmt.Fprintf(os.Stderr, "Dijkstra trees grown by the run itself: %d nodes settled, %d of them in the destination's tree, which closed %d leaves\n",
			res.Stats.PathTreeNodes, res.Stats.ClosureTreeNodes, res.Stats.ClosureLeaves)
	}
	printSolution(p, res)
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
func writeTrace(rec *core.TraceRecorder, traceOut string, explain bool) error {
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rec.Trace().WriteJSON(f); err != nil {
			return err
		}
	}
	if explain {
		if err := rec.Trace().Render(os.Stderr); err != nil {
			return err
		}
	}
	return nil
}

// logObserver prints the search progress to stderr under -v.
type logObserver struct{}

func (logObserver) LayerStart(spec core.LayerSpec, parents int) {
	fmt.Fprintf(os.Stderr, "layer %d: %d VNFs, %d parent sub-solutions\n",
		spec.Index, len(spec.VNFs), parents)
}

func (logObserver) SearchStart(layer int, start graph.NodeID, forward bool) {}

func (logObserver) SearchDone(layer int, start graph.NodeID, forward bool, size int, covered bool) {
	kind := "backward"
	if forward {
		kind = "forward"
	}
	fmt.Fprintf(os.Stderr, "  %s search from %d: %d nodes, covered=%v\n", kind, start, size, covered)
}

func (logObserver) ExtensionsBuilt(layer int, start graph.NodeID, generated, kept int) {
	fmt.Fprintf(os.Stderr, "  candidates from %d: %d generated, %d kept\n", start, generated, kept)
}

func (logObserver) CandidatesFiltered(layer int, considered, capacityRejected, delayRejected int) {
	fmt.Fprintf(os.Stderr, "  filter: %d considered, %d capacity-rejected, %d delay-rejected\n",
		considered, capacityRejected, delayRejected)
}

func (logObserver) LayeredRun(run core.LayeredRun) {
	fmt.Fprintf(os.Stderr, "  layered run over layers %d-%d: %d seeds, settled %d/%d states, %d of %d exits kept",
		run.First, run.Last, run.Seeds, run.Settled, run.States, run.Kept, run.Exits)
	if run.Fallback != "" {
		fmt.Fprintf(os.Stderr, "; falling back to the per-layer search (%s)", run.Fallback)
	}
	fmt.Fprintln(os.Stderr)
}

func (logObserver) LayerDone(spec core.LayerSpec, kept int, cheapest float64) {
	fmt.Fprintf(os.Stderr, "layer %d done: kept %d sub-solutions, cheapest %.2f\n",
		spec.Index, kept, cheapest)
}

func (logObserver) Leaf(total float64) {
	fmt.Fprintf(os.Stderr, "solution selected: total %.2f\n", total)
}

func printSolution(p *core.Problem, res *core.Result) {
	g := p.Net.G
	fmt.Printf("SFC %s embedded %d -> %d\n", p.SFC.String(), p.Src, p.Dst)
	for li, le := range res.Solution.Layers {
		spec := p.SFC.Layers[li]
		fmt.Printf("layer %d:\n", li+1)
		for i, node := range le.Nodes {
			fmt.Printf("  f(%d) @ node %d  inter-path %s\n", spec.VNFs[i], node, le.InterPaths[i].String(g))
		}
		if spec.Parallel() {
			fmt.Printf("  merger @ node %d\n", le.MergerNode)
			for i, path := range le.InnerPaths {
				fmt.Printf("  inner-path f(%d): %s\n", spec.VNFs[i], path.String(g))
			}
		}
	}
	fmt.Printf("tail: %s\n", res.Solution.TailPath.String(g))
	fmt.Printf("cost: total %.3f (VNF %.3f + links %.3f)\n",
		res.Cost.Total(), res.Cost.VNFCost, res.Cost.LinkCost)
	delay := core.EvaluateDelay(p, res.Solution, core.DefaultDelayParams())
	fmt.Printf("end-to-end delay (default model): %.3f\n", delay)
}
