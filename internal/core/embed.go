package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// ErrNoEmbedding is returned when the search space contains no feasible
// embedding (or none within the configured search budget).
var ErrNoEmbedding = errors.New("core: no feasible embedding found")

// The search's two safety valves. BBE's real-path enumeration reaches both;
// MBBE's mergers × assignments stay far below them
// (TestSafetyValvesNeverBindUnderMBBE), so neither is an option.
const (
	// maxExtensionsPerStart bounds the candidates kept per (layer, start
	// node), cheapest by local cost first.
	maxExtensionsPerStart = 512
	// maxSubSolutionsPerLayer bounds the sub-solution tree's width: the
	// best-ranked this-many of a layer's sub-solutions become the next
	// frontier.
	maxSubSolutionsPerLayer = 1024
)

// Options tunes the BBE/MBBE search. The zero value is not useful; start
// from BBEOptions or MBBEOptions.
type Options struct {
	// Xmax caps the forward search node set size (MBBE strategy 1).
	// 0 means unlimited, as in plain BBE.
	Xmax int
	// MiniPath instantiates every meta-path with a min-cost path on the
	// real-time network (MBBE strategy 2) instead of enumerating
	// real-paths from the search trees.
	MiniPath bool
	// Xd keeps only the cheapest Xd sub-solutions per parent in the
	// sub-solution tree (MBBE strategy 3, the X_d-tree). 0 = unlimited.
	Xd int
	// MaxPathsPerMeta bounds how many alternative real-paths per meta-path
	// the tree enumeration explores in BBE. Ignored when MiniPath is set.
	MaxPathsPerMeta int
	// MaxAssignmentsPerPair bounds how many VNF-to-node assignment
	// combinations are enumerated per FST–BST pair. 0 = unlimited. The
	// paper's BBE enumerates all of them and acknowledges memory overflow
	// on larger instances; the default keeps BBE runnable while preserving
	// its behaviour on the paper's instance sizes.
	MaxAssignmentsPerPair int
	// MaxMergerCandidates bounds how many FST merger nodes spawn a
	// backward search per layer (nearest-first order). 0 = unlimited.
	MaxMergerCandidates int
	// MaxDelay, when positive, turns the search delay-aware: candidate
	// sub-solutions whose accumulated end-to-end delay (under Delay)
	// already exceeds the bound are pruned, hop-minimal path variants
	// join the candidate set, and every truncation point keeps its
	// fastest candidate alive. Returned solutions always meet the bound;
	// ErrNoEmbedding is returned when none does. Note that the search
	// remains a cost-ordered beam: feasibility is not strictly monotone
	// in the bound (a chain of fast sub-solutions through non-fastest
	// intermediate nodes can still be crowded out under a looser budget).
	// An extension beyond the paper, which minimizes cost only.
	MaxDelay float64
	// Delay is the delay model used with MaxDelay; the zero value is
	// replaced by DefaultDelayParams().
	Delay DelayParams
	// Trace, when non-nil, is the span the run records itself into: its
	// outcome and search statistics as attributes, its phases as child spans
	// (see tracing.go). The caller opens it and ends it.
	Trace *telemetry.Span
	// Label names this configuration in telemetry metrics (the "alg"
	// label). BBEOptions/MBBEOptions set it; empty means "custom".
	Label string
	// PathCache and ViewCache are ignored: every run with a ledger keeps
	// its Dijkstra trees in its pooled arena for the next (see searchMem).
	//
	// Deprecated: benchmark/ still sets them; they go with their last caller.
	PathCache *graph.TreeCache
	ViewCache *graph.ViewCache
	// BannedEdges and BannedNodes exclude substrate elements from every
	// path search in the run — the per-request variant graph.CostOptions
	// bans express for a single search. Yen-style alternative-path
	// embeds and what-if re-embeds around a faulty element use these.
	// A banned run's path view and trees are its own (ban sets are all but
	// unique per request); only its capacity-only search view is the
	// arena's kept one. A nil map bans nothing.
	BannedEdges map[graph.EdgeID]bool
	BannedNodes map[graph.NodeID]bool
}

// BBEOptions returns the configuration for the plain Breadth-first
// Backtracking Embedding method (Algorithm 1). The bounds are generous:
// BBE explores many candidate sub-solutions per layer and enumerates
// alternative real-paths from its search trees, which is why its running
// time grows so much faster than MBBE's.
func BBEOptions() Options {
	return Options{
		MaxPathsPerMeta:       3,
		MaxAssignmentsPerPair: 512,
		MaxMergerCandidates:   16,
		Label:                 "bbe",
	}
}

// MBBEOptions returns the configuration for the Mini-path BBE method
// (§4.5): bounded forward search (Xmax), min-cost-path instantiation, and
// the X_d-tree pruning.
func MBBEOptions() Options {
	return Options{
		Xmax:                  120,
		MiniPath:              true,
		Xd:                    4,
		MaxAssignmentsPerPair: 4,
		MaxMergerCandidates:   8,
		Label:                 "mbbe",
	}
}

// Stats counts the work one embedding run performed.
type Stats struct {
	// ForwardSearches and BackwardSearches count search-tree builds.
	ForwardSearches  int
	BackwardSearches int
	// TreeNodes is the total number of FST/BST nodes materialized.
	TreeNodes int
	// Extensions is the number of candidate sub-solutions generated
	// (before pruning); SubSolutions the number inserted into the tree.
	Extensions   int
	SubSolutions int
	// CapacityRejections counts parent×extension candidates discarded by
	// a capacity feasibility check; DelayRejections those pruned by the
	// delay bound.
	CapacityRejections int
	DelayRejections    int
	// LayeredRuns counts the maximal runs of single-VNF layers handed to
	// the layered shortest-path kernel (see layered.go); LayeredFallbacks
	// those among them whose every proposal failed a capacity check, so
	// the run was searched layer by layer instead.
	LayeredRuns      int
	LayeredFallbacks int
	// PathTreeNodes is the number of nodes settled by this run in the
	// Dijkstra trees behind its meta-paths and, for a terminal layered run,
	// the tree that directs it. A tree an earlier run on the same arena grew
	// is resumed where that run left it, so only what this run settles
	// counts.
	PathTreeNodes int
	// ClosureLeaves is the number of layer-ω sub-solutions the run closed to
	// the destination (Algorithm 1 lines 9–11; zero when a terminal layered
	// run answered instead), ClosureTreeNodes the share of PathTreeNodes the
	// one tree rooted at the destination settled in this run: as far as the
	// farthest leaf under BBE, all of it under MBBE, whose parallel-layer
	// search ranks its candidates by that tree from the first layer on.
	ClosureLeaves    int
	ClosureTreeNodes int
}

// Result is a successful embedding: the solution, its priced breakdown and
// the search statistics.
type Result struct {
	Solution *Solution
	Cost     CostBreakdown
	Stats    Stats
}

// EmbedBBE embeds the problem's DAG-SFC with the Breadth-first
// Backtracking Embedding method.
func EmbedBBE(p *Problem) (*Result, error) { return Embed(p, BBEOptions()) }

// EmbedMBBE embeds the problem's DAG-SFC with the Mini-path BBE method.
func EmbedMBBE(p *Problem) (*Result, error) { return Embed(p, MBBEOptions()) }

// Embed runs the BBE framework with explicit options. BBE and MBBE differ
// only in options, exactly as §4.5 describes MBBE as BBE plus three
// complementary strategies.
//
// Embed never mutates p: the problem's ledger is read, not written, and a
// nil Ledger is replaced by a private empty one for the duration of the
// run. Concurrent Embed calls may therefore share one Problem value. Each
// call is a single-goroutine computation: it starts no goroutines, and
// parallelism belongs to the caller (one Embed per core).
func Embed(p *Problem, opts Options) (*Result, error) {
	return EmbedContext(context.Background(), p, opts)
}

// EmbedContext is Embed with cancellation: the search checks ctx between
// layers, before each start node's search-tree build and each FST–BST pair
// enumeration, and before tail-path assembly, returning ctx.Err() promptly
// once the context is done. A timed-out or abandoned request therefore
// stops burning CPU at the next check instead of running the layer loop to
// completion. A nil ctx means context.Background().
func EmbedContext(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	sc := acquireScratch()
	defer releaseScratch(sc)
	return embedOn(ctx, p, opts, sc)
}

// embedOn runs one embed in the scratch and arena sc, which the caller
// recycles afterwards.
func embedOn(ctx context.Context, p *Problem, opts Options, sc *pooledScratch) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	if opts.Label == "" {
		opts.Label = "custom"
	}
	if err := p.Validate(); err != nil {
		// Invalid instances are still failed embedding attempts: record
		// them so the attempts/failures metric families (and the online
		// acceptance dashboards built on them) do not undercount.
		telemetry.RecordEmbed(telemetry.EmbedSample{
			Alg: opts.Label, Elapsed: time.Since(start), Failed: true,
		})
		traceOutcome(opts.Trace, opts.Label, nil, err, nil)
		return nil, err
	}
	e := newEmbedder(ctx, p, opts, sc)
	res, err := e.run()
	traceOutcome(opts.Trace, opts.Label, res, err, &e.stats)
	telemetry.RecordPathCacheHits(e.treeHits)
	telemetry.RecordEmbed(telemetry.EmbedSample{
		Alg:           opts.Label,
		Elapsed:       time.Since(start),
		Failed:        err != nil,
		SearchNodes:   e.stats.TreeNodes,
		PathTreeNodes: e.stats.PathTreeNodes,
	})
	return res, err
}

// newEmbedder readies a run of opts on the valid problem p in sc, which
// holds the embedder itself: its ledger and cost views, and its tree table in
// sc's arena.
func newEmbedder(ctx context.Context, p *Problem, opts Options, sc *pooledScratch) *embedder {
	if opts.MaxDelay > 0 && opts.Delay.DefaultProcDelay == 0 &&
		opts.Delay.HopDelay == 0 && opts.Delay.MergerDelay == 0 && opts.Delay.ProcDelay == nil {
		opts.Delay = DefaultDelayParams()
	}
	e := &sc.e
	*e = embedder{p: p, opts: opts, ctx: ctx, ledger: p.ledgerOrFresh(), sc: sc}
	// The ledger is read-only for the whole run, so one CostOptions value
	// serves every search.
	e.costOpts = *e.ledger.CostOptions(p.Rate)
	// Read the ledger once into the run's dense rows, on the arena's storage:
	// every screen of the search reads them, and both tree stores bind over
	// the edge row.
	m := sc.mem
	e.res = readResiduals(e.ledger, m.instRes, m.resBuf)
	m.instRes, m.resBuf = e.res.inst, e.res.edge
	// The run's cost views: pathView backs every Dijkstra/hop search under
	// the full options; searchView is the capacity-only variant the FST/BST
	// layer-extension builds admit arcs through (runSearch admission ignores
	// ban sets, so a banned run needs the distinction). The search view is
	// the arena store's, compiled only when the row admits other arcs than
	// the kept one, and so are the trees of a run that bans nothing; a banned
	// run compiles its own path view and grows its own trees.
	g := p.Net.G
	v, reused, evicted := m.store.Bind(g, &e.costOpts, e.res.edge)
	if p.Ledger == nil {
		// Kept trees would be as valid here (the key is the content), but a
		// ledgerless run is a one-off whose time sim reports (BBE against
		// MBBE per instance): root every tree afresh so that time does not
		// depend on what the arena ran before.
		reused, evicted = false, evicted+m.store.Forget()
	}
	telemetry.RecordCostView(!reused)
	telemetry.RecordPathCacheEvictions(evicted)
	e.searchView, e.pathView, e.trees = v, v, &m.store
	if len(opts.BannedEdges) > 0 || len(opts.BannedNodes) > 0 {
		e.costOpts.BannedEdges = opts.BannedEdges
		e.costOpts.BannedNodes = opts.BannedNodes
		e.pathView, _, _ = m.private.Bind(g, &e.costOpts, e.res.edge)
		e.trees = &m.private
		telemetry.RecordCostView(true)
	}
	e.asked = m.idx.alloc(p.Net.G.NumNodes())
	return e
}

type embedder struct {
	p *Problem
	// opts is the run's configuration, Label resolved ("custom" when the
	// caller set none) and the delay model defaulted.
	opts Options
	// The reference switches, set by tests alone (embedReference): perLayer
	// keeps single-VNF runs away from the layered kernel, undirected withholds
	// the potential from terminal layered runs, perLeafClosure closes every
	// leaf with a tree of its own. Each is the slow path its replacement is
	// tested against.
	perLayer, undirected, perLeafClosure bool
	// ctx cancels the run between layers and between a layer's start-node
	// builds; never nil (EmbedContext defaults it to Background).
	ctx context.Context
	// ledger is the run's read-only capacity view. It is the problem's
	// ledger when one is set, else a private empty one — never written
	// back to the Problem (Commit owns that).
	ledger *network.Ledger
	// res is that view read once into dense rows (in the arena): what every
	// availability test and capacity screen under run reads.
	res residuals
	// costOpts is the run's single search-options value: the ledger is
	// read-only during a run, so its residual view never changes.
	costOpts graph.CostOptions
	// sc is the run's pooled scratch and arena, checked out for the whole
	// run: every search runs on sc.Scratch and everything the run retains
	// is carved from sc.mem.
	sc    *pooledScratch
	stats Stats
	// layerExts holds the current layer's extensions by start node: every
	// parent sub-solution ending on the same node shares the same set of
	// feasible layer embeddings. A dense window of the arena, filled by
	// buildLayerExtensions and read by screenParent.
	layerExts [][]*extension
	// trees is the arena's store the run's Dijkstra trees come from, grown
	// on pathView: store, kept from earlier runs or kept for later ones, or
	// for a banned run private. Links are bidirectional with symmetric
	// prices, so a path a→b is the reverse of the tree-from-a path to b, and
	// one tree per source serves every meta-path that shares an endpoint.
	//
	// asked marks the sources the run has asked for a tree, so that a source
	// counts once per run — as one hit in treeHits (flushed to telemetry when
	// the run ends) or as one miss — however often the search comes back to
	// it.
	trees    *graph.TreeStore
	asked    []int32
	treeHits uint64
	// pathView is the run's compiled cost view under the full options
	// (capacity floor plus ban sets): every Dijkstra and hop search runs
	// against it. searchView is the capacity-only view the FST/BST builds
	// admit arcs through; it aliases pathView when the run bans nothing.
	pathView   *graph.CostView
	searchView *graph.CostView
	// avgLink is the substrate's mean link price, the hop-distance scale of
	// the merger and host orderings. Prices are static, so run sums it once
	// (when the SFC has a parallel layer) instead of once per FST–BST pair.
	avgLink float64
	// toDst[v] is the price of the cheapest path from v on to the destination
	// (+Inf: none), read off the complete tree rooted there: what gives an
	// MBBE run with a parallel layer its sense of direction (see rank). Nil
	// for every other run — BBE ranks by cost so far, as Algorithm 1 does.
	toDst []float64
}

// treeFor returns the min-cost path tree rooted at src on pathView, final
// at least as far as upTo (graph.None: everywhere). It is grown on demand, so
// read nothing from it but what was asked for, and it outlives every later
// search on the run's scratch.
func (e *embedder) treeFor(src, upTo graph.NodeID) *graph.ShortestTree {
	t, hit, evicted := e.trees.Tree(src)
	if e.asked[src] == 0 {
		e.asked[src] = 1
		if hit {
			e.treeHits++
		} else if e.p.Ledger != nil {
			telemetry.RecordPathCacheMiss()
		}
	}
	if evicted {
		telemetry.RecordPathCacheEvictions(1)
	}
	tree, settled := t.To(e.sc.Scratch, upTo)
	e.stats.PathTreeNodes += settled
	return tree
}

// minCostPath returns a cheapest feasible path a→b via the memoized tree
// rooted at a, its edges walked straight into an exact-size window of the
// arena.
func (e *embedder) minCostPath(a, b graph.NodeID) (graph.Path, bool) {
	if a == b {
		return graph.EmptyPath(a), true
	}
	m := e.sc.mem
	// A tree path visits no node twice, so NumNodes-1 bounds its length.
	edges, ok := e.treeFor(a, b).AppendPathTo(m.edges.reserve(e.p.Net.G.NumNodes()-1), b)
	if !ok {
		m.edges.abandon(edges)
		return graph.Path{}, false
	}
	return graph.Path{From: a, Edges: m.edges.commit(edges)}, true
}

// minHopPath returns a fewest-hop feasible path a→b on pathView, its edges
// walked straight into an exact-size window of the arena.
func (e *embedder) minHopPath(a, b graph.NodeID) (graph.Path, bool) {
	m := e.sc.mem
	edges, ok := e.pathView.AppendMinHopPath(e.sc.Scratch, m.edges.reserve(e.p.Net.G.NumNodes()-1), a, b)
	if !ok {
		m.edges.abandon(edges)
		return graph.Path{}, false
	}
	return graph.Path{From: a, Edges: m.edges.commit(edges)}, true
}

// minCostPathFrom returns the same cheapest path traversed b→a (the
// reverse walk), via the memoized tree rooted at a.
func (e *embedder) minCostPathFrom(a, b graph.NodeID) (graph.Path, bool) {
	path, ok := e.minCostPath(a, b)
	if !ok {
		return graph.Path{}, false
	}
	slices.Reverse(path.Edges)
	path.From = b
	return path, true
}

// tailPath returns a cheapest feasible path end→destination, read off the
// tree rooted at the destination.
func (e *embedder) tailPath(end graph.NodeID) (graph.Path, bool) {
	if e.perLeafClosure {
		return e.minCostPath(end, e.p.Dst)
	}
	return e.minCostPathFrom(e.p.Dst, end)
}

// parentScreen is one parent's share of a layer's candidate screening:
// its surviving children plus the rejection tallies.
type parentScreen struct {
	children                               []*subSolution
	considered, capRejected, delayRejected int
}

// leafCand is one leaf of the sub-solution tree closed to the destination.
type leafCand struct {
	ss    *subSolution
	tail  graph.Path
	total float64
}

// bySubCost orders sub-solutions by rank; among equals (two chains ending on
// one node differ in rank exactly as in cost, rounding aside) the cheaper
// first, so the first sub-solution of an end node is its cheapest.
func bySubCost(a, b *subSolution) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.cum, b.cum)
}

// extend returns the sub-solution that appends ext, embedding the given
// layer, to parent.
func (e *embedder) extend(parent *subSolution, ext *extension, layer int) *subSolution {
	child := e.sc.mem.subs.one()
	*child = subSolution{
		parent:   parent,
		ext:      ext,
		layer:    layer,
		cum:      parent.cum + ext.localCost,
		cumDelay: parent.cumDelay + ext.delay,
	}
	child.rank = child.cum
	if e.toDst != nil {
		child.rank += e.toDst[ext.endNode] * e.p.Size
	}
	return child
}

func (e *embedder) run() (*Result, error) {
	p := e.p
	m := e.sc.mem
	specs := e.layerSpecs()

	frontier := m.subPtrs.alloc(1)
	frontier[0] = m.subs.one() // the root: layer 0, no extension, no cost

	// With min-cost-path instantiation and no delay bound, a maximal run of
	// single-VNF layers is one shortest path in a layered copy of the
	// substrate: layeredRun answers it exactly. The per-layer search below
	// serves everything else — parallel layers, BBE's real-path
	// enumeration, delay-bounded mode — and a run whose every proposal
	// failed a capacity check (perLayerUntil marks the end of such a run).
	layered := e.opts.MiniPath && e.opts.MaxDelay == 0 && !e.perLayer
	perLayerUntil := 0
	if slices.ContainsFunc(specs, func(s LayerSpec) bool { return s.Merger }) {
		e.avgLink = p.Net.AvgLinkPrice()
		if e.opts.MiniPath {
			// The tree the closure walks its tails off, and a terminal
			// layered run its potential: complete before the first layer, it
			// also tells every candidate how far it still has to go.
			e.toDst, e.stats.ClosureTreeNodes = e.destinationTree(e.opts.Trace)
		}
	}
	for i := 0; i < len(specs); i++ {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		spec := specs[i]
		sp := startLayer(e.opts.Trace, spec, len(frontier))
		if layered && !spec.Merger && i >= perLayerUntil {
			j := i + 1
			for j < len(specs) && !specs[j].Merger {
				j++
			}
			next, res, err := e.layeredRun(specs[i:j], frontier, j == len(specs), sp)
			if res != nil || err != nil {
				endSpan(sp)
				return res, err
			}
			if next != nil {
				frontier, i = next, j-1
				continue
			}
			perLayerUntil = j
		}
		next, err := e.searchLayer(spec, frontier, sp)
		if err != nil {
			endSpan(sp)
			return nil, err
		}
		frontier = next
	}

	if err := e.ctx.Err(); err != nil {
		return nil, err
	}

	// Close every leaf to the destination with a min-cost path and keep
	// the cheapest feasible complete solution (lines 9–11 of Algorithm 1).
	// Links are bidirectional, so one tree rooted at the destination — grown
	// as far as the farthest leaf end — holds every tail, walked in reverse.
	cl := startSpan(e.opts.Trace, "closure")
	cands := m.leaves[:0]
	grown := e.stats.PathTreeNodes
	for _, leaf := range frontier {
		tail, ok := e.tailPath(leaf.endNode(p.Src))
		if !ok {
			continue
		}
		if e.opts.MaxDelay > 0 &&
			leaf.cumDelay+float64(tail.Len())*e.opts.Delay.HopDelay > e.opts.MaxDelay {
			// The cheapest tail is too slow; fall back to the fewest-hop
			// tail if that one fits the remaining budget.
			hop, hopOK := e.minHopPath(leaf.endNode(p.Src), p.Dst)
			if !hopOK || leaf.cumDelay+float64(hop.Len())*e.opts.Delay.HopDelay > e.opts.MaxDelay {
				continue
			}
			tail = hop
		}
		cands = append(cands, leafCand{ss: leaf, tail: tail, total: leaf.cum + tail.Cost(p.Net.G)*p.Size})
	}
	m.leaves = cands
	e.stats.ClosureLeaves = len(frontier)
	e.stats.ClosureTreeNodes += e.stats.PathTreeNodes - grown
	slices.SortFunc(cands, func(a, b leafCand) int { return cmp.Compare(a.total, b.total) })
	var res *Result
	for _, cand := range cands {
		if res = e.complete(cand.ss, cand.tail); res != nil {
			break
		}
	}
	endClosure(cl, e.stats.ClosureLeaves, e.stats.ClosureTreeNodes)
	if res == nil {
		return nil, fmt.Errorf("%w: no leaf reaches the destination feasibly", ErrNoEmbedding)
	}
	return res, nil
}

// destinationTree returns the complete min-cost tree rooted at the
// destination — what ranks an MBBE run's parallel-layer candidates and
// directs a terminal layered run — and the nodes growing it settled, in a
// destination-tree span under parent.
func (e *embedder) destinationTree(parent *telemetry.Span) (dist []float64, settled int) {
	sp := startSpan(parent, "destination-tree")
	grown := e.stats.PathTreeNodes
	dist = e.treeFor(e.p.Dst, graph.None).Dist
	settled = e.stats.PathTreeNodes - grown
	if sp != nil {
		sp.SetAttr("tree_nodes", settled)
		sp.End()
	}
	return dist, settled
}

// layerSpecs expands the SFC's layers into their obligations and, beside
// them in the arena, each layer's forward-search coverage goal: once per
// run, for run, layeredRun and buildExtensions to read.
func (e *embedder) layerSpecs() []LayerSpec {
	m := e.sc.mem
	m.specs = e.p.appendLayerSpecs(m.specs[:0])
	m.required = sized(m.required, len(m.specs))
	for i, spec := range m.specs {
		m.required[i] = spec.VNFs
		if spec.Merger {
			m.required[i] = m.vnfs.commit(spec.appendRequired(m.vnfs.reserve(len(spec.VNFs)+1), e.p.Net.Catalog))
		}
	}
	return m.specs
}

// complete turns a layer-ω sub-solution chain plus its tail path into the
// run's Result, or nil when the validator or the cost model turns the
// assembled solution down. Each attempt is its own heap copy of the chain:
// a Solution never aliases the arenas the candidates live in.
func (e *embedder) complete(leaf *subSolution, tail graph.Path) *Result {
	sol := assemble(leaf, e.p.SFC.Omega(), tail)
	cb, err := Evaluate(e.p, sol)
	if err == nil {
		err = checkCapacity(e.ledger, e.p.Rate, cb.Usage)
	}
	if err != nil {
		return nil
	}
	return &Result{Solution: sol, Cost: cb, Stats: e.stats}
}

// searchLayer embeds one layer the paper's way — forward/backward search
// trees, candidate generation, per-parent screening — and returns the
// cost-sorted, pruned sub-solutions that become the next frontier.
func (e *embedder) searchLayer(spec LayerSpec, frontier []*subSolution, sp *telemetry.Span) ([]*subSolution, error) {
	m := e.sc.mem
	// Build every distinct start node's extensions up front; the screening
	// loop below then only reads them.
	e.buildLayerExtensions(spec, frontier, sp)
	filter := startSpan(sp, "filter")
	m.screens = sized(m.screens, len(frontier))
	screens := m.screens
	clear(screens)
	for i, parent := range frontier {
		e.screenParent(spec, parent, &screens[i])
	}
	considered, capRejected, delayRejected, children := 0, 0, 0, 0
	for i := range screens {
		considered += screens[i].considered
		capRejected += screens[i].capRejected
		delayRejected += screens[i].delayRejected
		children += len(screens[i].children)
	}
	next := m.subPtrs.alloc(children)[:0]
	for i := range screens {
		next = append(next, screens[i].children...)
	}
	e.stats.CapacityRejections += capRejected
	e.stats.DelayRejections += delayRejected
	endFilter(filter, considered, capRejected, delayRejected)
	// A cancelled run skips start-node builds, so an empty frontier here
	// may mean "cancelled", not "infeasible" — report the cancellation.
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if len(next) == 0 {
		return nil, fmt.Errorf("%w: layer %d has no feasible sub-solution", ErrNoEmbedding, spec.Index)
	}
	slices.SortFunc(next, bySubCost)
	next = e.truncateWithDelayDiversity(next, maxSubSolutionsPerLayer)
	e.stats.SubSolutions += len(next)
	if sp != nil {
		cheapest := slices.MinFunc(next, func(a, b *subSolution) int { return cmp.Compare(a.cum, b.cum) })
		endLayer(sp, len(next), cheapest.cum)
	}
	return next, nil
}

// screenParent filters one parent's candidate extensions against the
// delay bound and residual capacities, producing its cost-sorted (and
// Xd-truncated) children.
func (e *embedder) screenParent(spec LayerSpec, parent *subSolution, out *parentScreen) {
	p, m := e.p, e.sc.mem
	exts := e.layerExts[parent.endNode(p.Src)]
	children := m.subPtrs.reserve(len(exts))
	for _, ext := range exts {
		out.considered++
		if e.opts.MaxDelay > 0 && parent.cumDelay+ext.delay > e.opts.MaxDelay {
			out.delayRejected++
			continue
		}
		if !feasibleAfter(p.Rate, &e.res, parent, ext) {
			out.capRejected++
			continue
		}
		children = append(children, e.extend(parent, ext, spec.Index))
	}
	children = m.subPtrs.commit(children)
	slices.SortFunc(children, bySubCost)
	if e.opts.Xd > 0 {
		children = e.truncateWithDelayDiversity(children, e.opts.Xd)
	}
	out.children = children
}

// buildLayerExtensions fills layerExts for every distinct start node of the
// frontier, in first-appearance order. It stops early once the context is
// done, leaving the layer's extension sets incomplete; searchLayer
// re-checks the context before interpreting an empty frontier, so a
// cancelled run reports ctx.Err(), never a bogus ErrNoEmbedding.
func (e *embedder) buildLayerExtensions(spec LayerSpec, frontier []*subSolution, sp *telemetry.Span) {
	m := e.sc.mem
	n := e.p.Net.G.NumNodes()
	e.layerExts = m.extLists.alloc(n)
	built := m.idx.alloc(n)
	for _, parent := range frontier {
		start := parent.endNode(e.p.Src)
		if built[start] != 0 {
			continue
		}
		built[start] = 1
		if e.ctx.Err() != nil {
			return
		}
		e.layerExts[start] = e.buildExtensions(spec, start, sp)
	}
}

// buildExtensions builds one (layer, start) candidate set: the forward
// search, then for a single-VNF layer its hosts' candidates, for a parallel
// layer those of every FST–BST pair over the kept mergers, and the trim to
// the cheapest maxExtensionsPerStart. With min-cost-path instantiation the
// forward search runs one ring past coverage: the paths no longer come from
// the tree, so the tree is only the candidate set, and the nearest cover is
// rarely the cheapest. The searches and the build are traced under the
// layer's span sp.
func (e *embedder) buildExtensions(spec LayerSpec, start graph.NodeID, sp *telemetry.Span) []*extension {
	p, m := e.p, e.sc.mem
	fwd := startAt(sp, "forward-search", start)
	cfg := searchConfig{required: m.required[spec.Index-1], maxNodes: e.opts.Xmax, res: &e.res, view: e.searchView, mem: m}
	if e.opts.MiniPath {
		cfg.ringsPast = 1
	}
	fst := runSearch(p, start, cfg)
	m.interMemo.begin(p.Net.G.NumNodes())
	e.stats.ForwardSearches++
	e.stats.TreeNodes += fst.Size()
	endSearch(fwd, fst.Size(), fst.Covered())
	cand := startAt(sp, "candidates", start)
	if !fst.Covered() {
		endCandidates(cand, 0, 0)
		return nil
	}
	exts := m.extBuf[:0]
	if !spec.Merger {
		exts = e.singleVNFExtensions(exts, spec, start, fst)
	} else {
		mergers, limit := fst.NodesWith(p.Net.Catalog.Merger()), e.opts.MaxMergerCandidates
		if e.toDst != nil {
			// Cheapest-looking first, before any backward search is built:
			// rent, a hop-based estimate of the way there, the way on.
			rent := p.Net.Rents(p.Net.Catalog.Merger())
			mergers = m.firstByKey(mergers, limit, func(tn *TreeNode) float64 {
				return rent[tn.Node] + float64(tn.Iteration-1)*e.avgLink + e.toDst[tn.Node]
			})
		} else if limit > 0 && len(mergers) > limit {
			mergers = mergers[:limit]
		}
		for _, merger := range mergers {
			if e.ctx.Err() != nil {
				break
			}
			exts = e.pairExtensions(exts, spec, start, fst, merger, cand)
		}
	}
	generated := len(exts)
	// An exact-size carve of the candidates; the growable buffer they were
	// collected in goes back for the next build.
	kept := m.extPtrs.alloc(generated)
	copy(kept, exts)
	m.extBuf = exts[:0]
	kept = e.trimExtensions(kept, maxExtensionsPerStart)
	endCandidates(cand, generated, len(kept))
	return kept
}

// truncateWithDelayDiversity keeps the cheapest limit sub-solutions (the
// input is cost-sorted), except that in delay-bounded mode the fastest
// candidate always survives: otherwise a loose budget lets cheap-but-slow
// candidates crowd out the fast ones at truncation, making feasibility
// non-monotone in the budget (a tighter budget could succeed where a
// looser one failed). The input is never mutated — its backing array may
// be cached or shared — so a surviving out-of-prefix candidate is
// inserted at its cost-ordered position on a copy.
func (e *embedder) truncateWithDelayDiversity(children []*subSolution, limit int) []*subSolution {
	if len(children) <= limit {
		return children
	}
	if e.opts.MaxDelay <= 0 {
		return children[:limit]
	}
	fastest := children[0]
	for _, ss := range children[1:] {
		if ss.cumDelay < fastest.cumDelay {
			fastest = ss
		}
	}
	for _, ss := range children[:limit] {
		if ss == fastest {
			return children[:limit]
		}
	}
	return insertSorted(children[:limit-1], fastest,
		func(a, b *subSolution) bool { return bySubCost(a, b) < 0 })
}

// insertSorted returns a fresh slice holding the cost-sorted prefix plus
// extra at its cost-ordered position (after equal-cost elements, keeping
// the sort stable with respect to the original order).
func insertSorted[T any](prefix []T, extra T, less func(a, b T) bool) []T {
	out := make([]T, 0, len(prefix)+1)
	out = append(out, prefix...)
	pos := sort.Search(len(out), func(i int) bool { return less(extra, out[i]) })
	out = append(out, extra)
	copy(out[pos+1:], out[pos:])
	out[pos] = extra
	return out
}

// annotateDelay fills ext.delay in delay-bounded mode.
func (e *embedder) annotateDelay(spec LayerSpec, ext *extension) {
	if e.opts.MaxDelay <= 0 || ext == nil {
		return
	}
	ext.delay = e.opts.Delay.layerDelay(spec.VNFs, ext.interPaths, ext.innerPaths, spec.Merger)
}

// trimExtensions keeps the cheapest limit extensions by local cost; in
// delay-bounded mode the lowest-delay extension always survives the cut (see
// truncateWithDelayDiversity for the rationale — and like there, the
// survivor is inserted on a copy at its cost-ordered position, never spliced
// into the caller's backing array).
func (e *embedder) trimExtensions(exts []*extension, limit int) []*extension {
	slices.SortFunc(exts, func(a, b *extension) int { return cmp.Compare(a.localCost, b.localCost) })
	if len(exts) <= limit {
		return exts
	}
	if e.opts.MaxDelay <= 0 {
		return exts[:limit]
	}
	fastest := exts[0]
	for _, ext := range exts[1:] {
		if ext.delay < fastest.delay {
			fastest = ext
		}
	}
	for _, ext := range exts[:limit] {
		if ext == fastest {
			return exts[:limit]
		}
	}
	return insertSorted(exts[:limit-1], fastest,
		func(a, b *extension) bool { return a.localCost < b.localCost })
}

// singleVNFExtensions appends the candidates of a single-VNF layer: no
// merger, no backward search; the layer's end node is the VNF's node.
func (e *embedder) singleVNFExtensions(exts []*extension, spec LayerSpec, start graph.NodeID, fst *SearchTree) []*extension {
	m := e.sc.mem
	f := spec.VNFs[0]
	for _, tn := range fst.NodesWith(f) {
		for _, inter := range e.interPaths(fst, tn, start) {
			nodes, paths := m.nodeIDs.alloc(1), m.paths.alloc(1)
			nodes[0], paths[0] = tn.Node, inter
			ext := buildExtension(m, e.p, spec, nodes, tn.Node, paths, nil)
			if ext != nil {
				e.annotateDelay(spec, ext)
				exts = append(exts, ext)
				e.stats.Extensions++
			}
		}
	}
	return exts
}

// pairExtensions appends the candidate sub-solutions of one FST–BST pair
// (§4.4.1): enumerate parallel-VNF allocations over the BST's nodes, then
// instantiate inner-layer paths from the BST and inter-layer paths from
// the FST. The backward search is traced under the build's candidates span.
func (e *embedder) pairExtensions(exts []*extension, spec LayerSpec, start graph.NodeID, fst *SearchTree, mergerTN *TreeNode,
	cand *telemetry.Span) []*extension {
	p, m := e.p, e.sc.mem
	bwd := startAt(cand, "backward-search", mergerTN.Node)
	bst := runSearch(p, mergerTN.Node, searchConfig{
		required: spec.VNFs,
		within:   fst,
		res:      &e.res,
		view:     e.searchView,
		mem:      m,
	})
	e.stats.BackwardSearches++
	e.stats.TreeNodes += bst.Size()
	endSearch(bwd, bst.Size(), bst.Covered())
	if !bst.Covered() {
		return exts
	}
	m.innerMemo.begin(p.Net.G.NumNodes())

	// Hosts per VNF, cheapest-looking first: rental price plus a hop-based
	// link-price estimate toward the merger and, in a run with a sense of
	// direction, from the start. Within A steps the odometer below reads no
	// list past index A-1, so each list is cut to the A cheapest.
	k := len(spec.VNFs)
	m.hosts = sized(m.hosts, k)
	hosts := m.hosts
	for i, f := range spec.VNFs {
		hs := bst.NodesWith(f)
		if len(hs) == 0 {
			return exts
		}
		rent := p.Net.Rents(f)
		hosts[i] = m.firstByKey(hs, e.opts.MaxAssignmentsPerPair, func(tn *TreeNode) float64 {
			h := tn.Iteration - 1
			if e.toDst != nil {
				h += fst.NodeOf(tn.Node).Iteration - 1
			}
			return rent[tn.Node] + float64(h)*e.avgLink
		})
	}

	// Walk the allocations as an odometer over the host lists, the last
	// VNF's host turning fastest — the order a depth-first enumeration
	// visits them in.
	m.assignment = sized(m.assignment, k)
	m.hostIdx = sized(m.hostIdx, k)
	assignment, idx := m.assignment, m.hostIdx
	clear(idx)
	for count := 0; e.opts.MaxAssignmentsPerPair <= 0 || count < e.opts.MaxAssignmentsPerPair; count++ {
		for i := range assignment {
			assignment[i] = hosts[i][idx[i]]
		}
		exts = e.instantiate(exts, spec, start, fst, bst, mergerTN, assignment)
		i := k - 1
		for ; i >= 0; i-- {
			if idx[i]++; idx[i] < len(hosts[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return exts
}

// instantiate appends to exts the extension(s) for one concrete VNF
// allocation: the base variant uses the first discovered real-path per
// meta-path (or the min-cost path under MiniPath); in BBE mode, alternative
// real-paths are explored one meta-path at a time to bound the
// cross-product the paper's step (ii)/(iii) would otherwise generate.
func (e *embedder) instantiate(exts []*extension, spec LayerSpec, start graph.NodeID, fst, bst *SearchTree,
	mergerTN *TreeNode, assignment []*TreeNode) []*extension {

	m := e.sc.mem
	k := len(assignment)
	nodes := m.nodeIDs.alloc(k)
	for i, tn := range assignment {
		nodes[i] = tn.Node
	}

	// Collect path choices per meta-path.
	m.interChoices = sized(m.interChoices, k)
	m.innerChoices = sized(m.innerChoices, k)
	interChoices, innerChoices := m.interChoices, m.innerChoices
	for i, tn := range assignment {
		fstTN := fst.NodeOf(tn.Node)
		if fstTN == nil {
			return exts // BST ⊆ FST by construction; defensive
		}
		interChoices[i] = e.interPaths(fst, fstTN, start)
		innerChoices[i] = e.innerPaths(bst, tn, mergerTN.Node)
		if len(interChoices[i]) == 0 || len(innerChoices[i]) == 0 {
			return exts
		}
	}

	// build assembles the variant that takes choice v for inter-layer
	// meta-path interAlt or inner-layer meta-path innerAlt (-1: none) and
	// the first choice everywhere else.
	build := func(interAlt, innerAlt, v int) {
		inter, inner := m.paths.alloc(k), m.paths.alloc(k)
		for i := range assignment {
			inter[i], inner[i] = interChoices[i][0], innerChoices[i][0]
		}
		if interAlt >= 0 {
			inter[interAlt] = interChoices[interAlt][v]
		}
		if innerAlt >= 0 {
			inner[innerAlt] = innerChoices[innerAlt][v]
		}
		if ext := buildExtension(m, e.p, spec, nodes, mergerTN.Node, inter, inner); ext != nil {
			e.annotateDelay(spec, ext)
			exts = append(exts, ext)
			e.stats.Extensions++
		}
	}

	build(-1, -1, 0)
	// One-at-a-time alternative path variants: BBE's tree-path choices,
	// or the hop-minimal variants added in delay-bounded mode.
	if !e.opts.MiniPath || e.opts.MaxDelay > 0 {
		for i := range assignment {
			for v := 1; v < len(interChoices[i]); v++ {
				build(i, -1, v)
			}
			for v := 1; v < len(innerChoices[i]); v++ {
				build(-1, i, v)
			}
		}
	}
	return exts
}

// withHopVariant returns the path choices for the meta-path a→b given its
// min-cost path: in delay-bounded mode the fewest-hops path joins them when
// it is strictly shorter — the min-cost path minimizes price, the hop
// variant minimizes propagation delay, and the candidate generation
// explores both.
func (e *embedder) withHopVariant(a, b graph.NodeID, path graph.Path) []graph.Path {
	m := e.sc.mem
	choices := append(m.paths.reserve(2), path)
	if e.opts.MaxDelay > 0 {
		if hop, ok := e.minHopPath(a, b); ok && hop.Len() < path.Len() {
			choices = append(choices, hop)
		}
	}
	return m.paths.commit(choices)
}

// interPaths returns the inter-layer real-path choices from start to the
// FST node tn, in start→node direction. Every assignment of the build that
// places a VNF on tn's node asks for the same meta-path, so it is walked
// once and the choices shared, read-only, from then on.
func (e *embedder) interPaths(fst *SearchTree, tn *TreeNode, start graph.NodeID) []graph.Path {
	memo := &e.sc.mem.interMemo
	if choices, ok := memo.get(tn.Node); ok {
		return choices
	}
	var out []graph.Path
	if e.opts.MiniPath {
		if path, ok := e.minCostPath(start, tn.Node); ok {
			out = e.withHopVariant(start, tn.Node, path)
		}
	} else {
		raw := fst.PathsToRoot(tn, e.opts.MaxPathsPerMeta)
		out = make([]graph.Path, len(raw))
		for i, p := range raw {
			out[i] = p.Reverse(e.p.Net.G)
		}
	}
	memo.put(tn.Node, out)
	return out
}

// innerPaths returns the inner-layer real-path choices from the BST node
// tn to the merger node, in node→merger direction, walked once per FST–BST
// pair like interPaths' per build.
func (e *embedder) innerPaths(bst *SearchTree, tn *TreeNode, mergerNode graph.NodeID) []graph.Path {
	memo := &e.sc.mem.innerMemo
	if choices, ok := memo.get(tn.Node); ok {
		return choices
	}
	var out []graph.Path
	if e.opts.MiniPath {
		// One tree rooted at the merger serves every inner path of the
		// pair, walked in node→merger direction.
		if path, ok := e.minCostPathFrom(mergerNode, tn.Node); ok {
			out = e.withHopVariant(tn.Node, mergerNode, path)
		}
	} else {
		out = bst.PathsToRoot(tn, e.opts.MaxPathsPerMeta)
	}
	memo.put(tn.Node, out)
	return out
}
