// Package dagsfc is a Go implementation of "DAG-SFC: Minimize the
// Embedding Cost of SFC with Parallel VNFs" (Lin, Guo, Shen, Tang, Ren —
// ICPP 2018).
//
// A hybrid service function chain mixes sequential and parallel VNFs; the
// paper standardizes it as a layered DAG (a DAG-SFC) and asks for the
// cheapest embedding of that DAG into a priced, capacitated cloud network:
// rent one VNF instance per DAG position and implement every logical edge
// (meta-path) with a network path, minimizing VNF rental cost plus link
// cost. The package provides:
//
//   - the network model: priced bidirectional links, per-node VNF
//     instances with rental prices and processing capacities, and a
//     residual-capacity ledger for online scenarios;
//   - the DAG-SFC model, including the transformation of a sequential
//     chain into its hybrid form via read/write-conflict analysis of NF
//     pairs (after NFP/ParaBox);
//   - the paper's embedding algorithms, BBE and MBBE, the RANV/MINV
//     benchmarks, an exact DP solver, a simulated-annealing metaheuristic,
//     and the paper's §3.3 integer program solved by a built-in
//     simplex/branch-and-bound MILP stack;
//   - the evaluation harness reproducing every figure of the paper's §5,
//     plus latency, delay-bounded embedding, online multi-flow/churn and
//     topology-robustness extensions.
//
// # Quick start
//
//	net := dagsfc.NewNetwork(g, dagsfc.Catalog{N: 4})   // deploy instances...
//	chain := []dagsfc.VNFID{1, 2, 3}
//	hybrid := dagsfc.ChainToDAG(chain, dagsfc.StockRules(), 3)
//	p := &dagsfc.Problem{Net: net, SFC: hybrid, Src: 0, Dst: 9, Rate: 1, Size: 1}
//	res, err := dagsfc.EmbedMBBE(p)
//
// See examples/ for complete programs and cmd/dagsfc-bench for the
// experiment suite.
package dagsfc

import (
	"io"
	"math/rand"

	"dagsfc/internal/anneal"
	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/exact"
	"dagsfc/internal/graph"
	"dagsfc/internal/ipmodel"
	"dagsfc/internal/latency"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/online"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/viz"
)

// Graph and path types (see internal/graph).
type (
	// Graph is the priced, capacitated bidirectional multigraph modeling
	// the target network's topology.
	Graph = graph.Graph
	// NodeID identifies a network node.
	NodeID = graph.NodeID
	// EdgeID identifies a network link.
	EdgeID = graph.EdgeID
	// Edge is one bidirectional link with price and bandwidth capacity.
	Edge = graph.Edge
	// Path is a walk through the network implementing a meta-path.
	Path = graph.Path
)

// Network and deployment types (see internal/network).
type (
	// Network is the target cloud network: graph plus VNF deployment.
	Network = network.Network
	// Catalog enumerates the VNF categories f(1)..f(N) plus the implicit
	// dummy f(0) and merger f(N+1).
	Catalog = network.Catalog
	// VNFID identifies a VNF category.
	VNFID = network.VNFID
	// Instance is a rentable VNF deployment on a node.
	Instance = network.Instance
	// Ledger tracks committed link bandwidth and instance capacity — the
	// real-time network view.
	Ledger = network.Ledger
)

// SFC types (see internal/sfc).
type (
	// Layer is one serial stage of a DAG-SFC (a parallel VNF set).
	Layer = sfc.Layer
	// DAGSFC is the standardized hybrid SFC: serial layers of parallel
	// VNF sets, each parallel layer followed by a merger.
	DAGSFC = sfc.DAGSFC
	// RuleTable answers which VNF category pairs may run in parallel.
	RuleTable = sfc.RuleTable
	// Action is a category's packet read/write/drop profile.
	Action = sfc.Action
	// DAG is a generic dependency graph over SFC positions, convertible
	// to a DAG-SFC with Levelize.
	DAG = sfc.DAG
)

// Embedding problem types (see internal/core).
type (
	// Problem is one DAG-SFC embedding instance.
	Problem = core.Problem
	// Solution is a complete embedding: assignments plus real-paths.
	Solution = core.Solution
	// LayerEmbedding is the embedding of one layer.
	LayerEmbedding = core.LayerEmbedding
	// Result bundles a solution with its cost breakdown and search stats.
	Result = core.Result
	// Options tunes the BBE/MBBE search.
	Options = core.Options
	// CostBreakdown is the evaluated objective with reuse counts.
	CostBreakdown = core.CostBreakdown
	// InstanceUseKey identifies a rented instance in a CostBreakdown.
	InstanceUseKey = core.InstanceUseKey
	// Stats counts the work an embedding run performed.
	Stats = core.Stats
	// LayerSpec is one layer's embedding obligation (used by Observer).
	LayerSpec = core.LayerSpec
	// LayeredRun summarises one run of single-VNF layers answered by the
	// layered shortest-path kernel (used by Observer).
	LayeredRun = core.LayeredRun
	// Observer receives progress callbacks from an Embed run (set it on
	// Options.Observer).
	Observer = core.Observer
	// FuncObserver adapts plain functions to Observer.
	FuncObserver = core.FuncObserver
	// MultiObserver fans callbacks out to several observers.
	MultiObserver = core.MultiObserver
	// TraceRecorder is an Observer capturing one Embed run as a telemetry
	// span tree (the -trace-out/-explain machinery of cmd/dagsfc-embed).
	TraceRecorder = core.TraceRecorder
)

// NewTraceRecorder starts recording an Embed run as a span tree; set it as
// (or into) Options.Observer, call Finish after Embed returns, then Trace.
func NewTraceRecorder(alg string) *TraceRecorder { return core.NewTraceRecorder(alg) }

// Generator configurations (see internal/netgen and internal/sfcgen).
type (
	// NetConfig parameterizes the random network generator (§5.1).
	NetConfig = netgen.Config
	// SFCConfig parameterizes the random SFC generator (§5.1).
	SFCConfig = sfcgen.Config
)

// Latency and online extension types.
type (
	// DelayParams configures the end-to-end delay model.
	DelayParams = latency.Params
	// FlowRequest is one flow in an online embedding scenario.
	FlowRequest = online.Request
	// OnlineReport aggregates an online run's acceptance and cost.
	OnlineReport = online.Report
)

// ErrNoEmbedding is returned when no feasible embedding exists (or none
// within the search budget).
var ErrNoEmbedding = core.ErrNoEmbedding

// NewGraph returns a graph with n nodes and no links.
func NewGraph(n int) *Graph { return graph.New(n) }

// NewNetwork returns a network over g offering the catalog's categories.
func NewNetwork(g *Graph, c Catalog) *Network { return network.New(g, c) }

// NewLedger returns an empty capacity ledger over net.
func NewLedger(net *Network) *Ledger { return network.NewLedger(net) }

// EmbedBBE embeds with the Breadth-first Backtracking Embedding method
// (Algorithm 1 of the paper).
func EmbedBBE(p *Problem) (*Result, error) { return core.EmbedBBE(p) }

// EmbedMBBE embeds with the Mini-path BBE method (§4.5): BBE plus bounded
// forward search, min-cost-path instantiation, and X_d-tree pruning.
func EmbedMBBE(p *Problem) (*Result, error) { return core.EmbedMBBE(p) }

// Embed runs the BBE framework with explicit options.
func Embed(p *Problem, opts Options) (*Result, error) { return core.Embed(p, opts) }

// BBEOptions and MBBEOptions return the two methods' default search
// configurations.
func BBEOptions() Options { return core.BBEOptions() }

// MBBEOptions returns the Mini-path BBE configuration.
func MBBEOptions() Options { return core.MBBEOptions() }

// EmbedRANV embeds with the randomized benchmark of §5.1.
func EmbedRANV(p *Problem, rng *rand.Rand) (*Result, error) { return baseline.EmbedRANV(p, rng) }

// EmbedMINV embeds with the cheapest-instance benchmark of §5.1.
func EmbedMINV(p *Problem) (*Result, error) { return baseline.EmbedMINV(p) }

// EmbedExact solves small instances to optimality (see internal/exact for
// the model caveats). The zero Limits applies safe defaults.
func EmbedExact(p *Problem, lim exact.Limits) (*Result, error) { return exact.Embed(p, lim) }

// ExactLimits guards the exact solver against oversized instances.
type ExactLimits = exact.Limits

// EmbedAnneal embeds by simulated annealing over VNF placements, started
// from the MINV greedy solution (see internal/anneal). The zero Options
// applies the default schedule.
func EmbedAnneal(p *Problem, rng *rand.Rand, opts AnnealOptions) (*Result, error) {
	return anneal.Embed(p, rng, opts)
}

// AnnealOptions tunes the simulated-annealing schedule.
type AnnealOptions = anneal.Options

// EmbedILP solves the paper's §3.3 integer program with the built-in
// branch-and-bound solver; tractable on very small instances only (see
// internal/ipmodel). The zero Options applies safe defaults.
func EmbedILP(p *Problem, opts ILPOptions) (*Result, error) { return ipmodel.Embed(p, opts) }

// ILPOptions tunes the integer-program encoding and solver.
type ILPOptions = ipmodel.Options

// Validate checks a solution against every constraint of the optimization
// model; nil means feasible.
func Validate(p *Problem, s *Solution) error { return core.Validate(p, s) }

// ComputeCost evaluates a solution's objective (eq. 1 with the reuse
// accounting of eqs. 7–10).
func ComputeCost(p *Problem, s *Solution) (CostBreakdown, error) { return core.ComputeCost(p, s) }

// Commit validates a solution and reserves its capacity demands on the
// problem's ledger, for online multi-flow scenarios.
func Commit(p *Problem, s *Solution) (CostBreakdown, error) { return core.Commit(p, s) }

// ChainToDAG transforms a sequential chain into its hybrid DAG-SFC form by
// grouping consecutive pairwise-parallelizable VNFs (Fig. 2 of the paper).
// maxWidth bounds the parallel set size (the paper uses 3); <= 0 means
// unbounded.
func ChainToDAG(chain []VNFID, rules *RuleTable, maxWidth int) DAGSFC {
	return sfc.ChainToDAG(chain, rules, maxWidth)
}

// FromChain returns the fully sequential DAG-SFC of a chain (one layer per
// VNF).
func FromChain(chain []VNFID) DAGSFC { return sfc.FromChain(chain) }

// NewRuleTable returns an empty parallelizability rule table.
func NewRuleTable() *RuleTable { return sfc.NewRuleTable() }

// StockRules returns action profiles for the stock NF categories below.
func StockRules() *RuleTable { return sfc.StockRules() }

// Stock network function categories (catalog positions f(1)..f(8)) with
// NFP/ParaBox-style read-write profiles; see StockRules.
const (
	Firewall      = sfc.Firewall
	IDS           = sfc.IDS
	NAT           = sfc.NAT
	LoadBalancer  = sfc.LoadBalancer
	Monitor       = sfc.Monitor
	VPN           = sfc.VPN
	WANOptimizer  = sfc.WANOptimizer
	TrafficShaper = sfc.TrafficShaper
	NumStockVNFs  = sfc.NumStockVNFs
)

// StockNames maps stock categories to display names.
var StockNames = sfc.StockNames

// GenerateNetwork draws one random network from the §5.1 distribution.
func GenerateNetwork(cfg NetConfig, rng *rand.Rand) (*Network, error) {
	return netgen.Generate(cfg, rng)
}

// DefaultNetConfig returns the paper's Table 2 base network configuration.
func DefaultNetConfig() NetConfig { return netgen.Default() }

// GenerateSFC draws one random DAG-SFC from the §5.1 distribution.
func GenerateSFC(cfg SFCConfig, rng *rand.Rand) (DAGSFC, error) {
	return sfcgen.Generate(cfg, rng)
}

// EvaluateDelay computes the end-to-end delay of an embedded DAG-SFC under
// the given delay model (parallel branches overlap; serial layers add up).
func EvaluateDelay(p *Problem, s *Solution, params DelayParams) float64 {
	return latency.Evaluate(p, s, params)
}

// DefaultDelayParams returns the default delay model.
func DefaultDelayParams() DelayParams { return latency.DefaultParams() }

// SequentialProblem returns a copy of p whose SFC is the fully sequential
// form of the same chain, for hybrid-vs-sequential comparisons.
func SequentialProblem(p *Problem) *Problem { return latency.SequentialProblem(p) }

// RunOnline embeds a sequence of flow requests on a shared ledger,
// committing each accepted embedding (see internal/online). A request
// with no embedding (ErrNoEmbedding), or whose placement the ledger refuses,
// is rejected; any other error from embed aborts the run.
func RunOnline(net *Network, reqs []FlowRequest, embed func(*Problem) (*Result, error)) (OnlineReport, error) {
	return online.Run(net, reqs, embed)
}

// Release returns a committed solution's capacity to the problem's ledger
// (a flow departing); the exact inverse of Commit.
func Release(p *Problem, s *Solution) error { return core.Release(p, s) }

// TimedFlowRequest is a flow with an arrival time and holding duration for
// churn scenarios.
type TimedFlowRequest = online.TimedRequest

// ChurnReport aggregates a churn run.
type ChurnReport = online.ChurnReport

// RunChurn processes timed requests in event order, committing arrivals
// and releasing departures, so capacity recycles (see internal/online).
// Embedder errors follow RunOnline's rule: only ErrNoEmbedding and a
// commit-time refusal count as rejections; anything else — a malformed
// request, a bug in embed — aborts the run rather than posting a plausible
// acceptance ratio.
func RunChurn(net *Network, reqs []TimedFlowRequest, embed func(*Problem) (*Result, error)) (ChurnReport, error) {
	return online.RunChurn(net, reqs, embed)
}

// WriteSolutionJSON serializes a solution (paths as node sequences).
func WriteSolutionJSON(w io.Writer, p *Problem, s *Solution) error {
	return core.WriteSolutionJSON(w, p, s)
}

// ReadSolutionJSON parses a solution written by WriteSolutionJSON,
// re-resolving its paths against the problem's network. Validate the
// result before use.
func ReadSolutionJSON(r io.Reader, p *Problem) (*Solution, error) {
	return core.ReadSolutionJSON(r, p)
}

// WriteNetworkJSON serializes a network (topology, prices, deployment).
func WriteNetworkJSON(w io.Writer, net *Network) error { return net.WriteJSON(w) }

// ReadNetworkJSON parses a network written by WriteNetworkJSON.
func ReadNetworkJSON(r io.Reader) (*Network, error) { return network.ReadJSON(r) }

// DOTOptions controls WriteDOT rendering.
type DOTOptions = viz.Options

// WriteDOT renders a network — and, when DOTOptions carries a Solution
// and Problem, the embedding overlay — as Graphviz DOT.
func WriteDOT(w io.Writer, net *Network, opts DOTOptions) error {
	return viz.WriteDOT(w, net, opts)
}
