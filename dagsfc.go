// Package dagsfc is a Go implementation of "DAG-SFC: Minimize the
// Embedding Cost of SFC with Parallel VNFs" (Lin, Guo, Shen, Tang, Ren —
// ICPP 2018).
//
// A hybrid service function chain mixes sequential and parallel VNFs; the
// paper standardizes it as a layered DAG (a DAG-SFC) and asks for the
// cheapest embedding of that DAG into a priced, capacitated cloud network:
// rent one VNF instance per DAG position and implement every logical edge
// (meta-path) with a network path, minimizing VNF rental cost plus link
// cost. The package exports:
//
//   - the network model: priced bidirectional links, per-node VNF
//     instances with rental prices and processing capacities, and a
//     residual-capacity ledger for online scenarios;
//   - the DAG-SFC model, including the transformation of a sequential
//     chain into its hybrid form via read/write-conflict analysis of NF
//     pairs (after NFP/ParaBox);
//   - the paper's embedding algorithms, BBE and MBBE, the RANV/MINV
//     benchmarks and an exact solver for small instances;
//   - the paper's §5.1 random network and SFC generators.
//
// # Quick start
//
//	net := dagsfc.NewNetwork(g, dagsfc.Catalog{N: 4})   // deploy instances...
//	chain := []dagsfc.VNFID{1, 2, 3}
//	hybrid := dagsfc.ChainToDAG(chain, dagsfc.StockRules(), 3)
//	p := &dagsfc.Problem{Net: net, SFC: hybrid, Src: 0, Dst: 9, Rate: 1, Size: 1}
//	res, err := dagsfc.EmbedMBBE(p)
//
// The package's examples are complete programs; cmd/dagsfc-embed embeds
// one SFC from the command line and cmd/dagsfc-bench regenerates the
// paper's evaluation.
package dagsfc

import (
	"io"
	"math/rand"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/exact"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

type (
	// Graph is the priced, capacitated bidirectional multigraph modeling
	// the target network's topology.
	Graph = graph.Graph
	// Network is the target cloud network: graph plus VNF deployment.
	Network = network.Network
	// Catalog enumerates the VNF categories f(1)..f(N) plus the implicit
	// dummy f(0) and merger f(N+1).
	Catalog = network.Catalog
	// VNFID identifies a VNF category.
	VNFID = network.VNFID
	// Ledger tracks committed link bandwidth and instance capacity — the
	// real-time network view.
	Ledger = network.Ledger
	// DAGSFC is the standardized hybrid SFC: serial layers of parallel
	// VNF sets, each parallel layer followed by a merger.
	DAGSFC = sfc.DAGSFC
	// RuleTable answers which VNF category pairs may run in parallel.
	RuleTable = sfc.RuleTable
	// Problem is one DAG-SFC embedding instance.
	Problem = core.Problem
	// Solution is a complete embedding: assignments plus real-paths.
	Solution = core.Solution
	// Result bundles a solution with its cost breakdown and search stats.
	Result = core.Result
	// CostBreakdown is the evaluated objective with reuse counts.
	CostBreakdown = core.CostBreakdown
	// ExactLimits guards the exact solver against oversized instances.
	ExactLimits = exact.Limits
	// NetConfig parameterizes the random network generator (§5.1).
	NetConfig = netgen.Config
	// SFCConfig parameterizes the random SFC generator (§5.1).
	SFCConfig = sfcgen.Config
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

// EmbedRANV embeds with the randomized benchmark of §5.1.
func EmbedRANV(p *Problem, rng *rand.Rand) (*Result, error) { return baseline.EmbedRANV(p, rng) }

// EmbedMINV embeds with the cheapest-instance benchmark of §5.1.
func EmbedMINV(p *Problem) (*Result, error) { return baseline.EmbedMINV(p) }

// EmbedExact solves small instances to optimality (see internal/exact for
// the model caveats). The zero Limits applies safe defaults.
func EmbedExact(p *Problem, lim ExactLimits) (*Result, error) { return exact.Embed(p, lim) }

// Validate checks a solution against every constraint of the optimization
// model; nil means feasible.
func Validate(p *Problem, s *Solution) error { return core.Validate(p, s) }

// Commit validates a solution and reserves its capacity demands on the
// problem's ledger, for online multi-flow scenarios.
func Commit(p *Problem, s *Solution) (CostBreakdown, error) { return core.Commit(p, s) }

// Release returns a committed solution's capacity to the problem's ledger
// (a flow departing); the exact inverse of Commit.
func Release(p *Problem, s *Solution) error { return core.Release(p, s) }

// ParseSFC parses the textual DAG-SFC syntax used by the CLI tools and the
// serving API: layers separated by ';', parallel VNFs within a layer
// separated by ','. For example "1;2,3,4;5" is the three-layer SFC
// [f1] -> [f2|f3|f4 +m] -> [f5]. Whitespace around numbers is ignored.
func ParseSFC(s string) (DAGSFC, error) { return sfc.Parse(s) }

// FormatSFC renders a DAG-SFC in the syntax ParseSFC accepts.
func FormatSFC(s DAGSFC) string { return sfc.Format(s) }

// ChainToDAG transforms a sequential chain into its hybrid DAG-SFC form by
// grouping consecutive pairwise-parallelizable VNFs (Fig. 2 of the paper).
// maxWidth bounds the parallel set size (the paper uses 3); <= 0 means
// unbounded.
func ChainToDAG(chain []VNFID, rules *RuleTable, maxWidth int) DAGSFC {
	return sfc.ChainToDAG(chain, rules, maxWidth)
}

// StockRules returns NFP/ParaBox-style read-write profiles for the eight
// stock NF categories, catalog positions f(1)..f(8): firewall, IDS, NAT,
// load balancer, monitor, VPN, WAN optimizer, traffic shaper.
func StockRules() *RuleTable { return sfc.StockRules() }

// Stock categories by name, for the ones the examples chain.
const (
	Firewall = sfc.Firewall
	IDS      = sfc.IDS
	NAT      = sfc.NAT
	Monitor  = sfc.Monitor
)

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
