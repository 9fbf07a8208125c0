package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
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

// algorithm is a run's search method: MBBE (the zero value) or BBE.
type algorithm uint8

const (
	mbbe algorithm = iota
	bbe
)

// searchBounds are an algorithm's fixed settings: §4.5's three MBBE
// strategies — the forward-search cap xmax, min-cost-path instantiation
// (miniPath; the lazy lists and the layered kernel it enables need xd > 0)
// and the X_d-tree width xd, 0 meaning unlimited for both caps — the merger
// nodes per list that spawn a backward search, the host assignments per
// FST–BST pair, the real-paths per meta-path read off the trees without
// miniPath, and the "alg" label of its telemetry. BBE's caps keep the paper's
// exhaustive enumeration, which overflows memory on larger instances, runnable.
type searchBounds struct {
	label                                        string
	xmax, xd, mergers, assignments, pathsPerMeta int
	miniPath                                     bool
}

// MBBE's merger and assignment bounds: a lazy list holds all its pairs'
// assignments uncut, so together they must fit one list's valve.
const (
	mbbeMergers     = 8
	mbbeAssignments = 4
	_               = uint(maxExtensionsPerStart - mbbeMergers*mbbeAssignments)
)

// algorithms holds each algorithm's bounds; a run copies its row into
// embedder.bounds, which only tests change.
var algorithms = [...]searchBounds{
	mbbe: {label: "mbbe", xmax: 120, miniPath: true, xd: 4, mergers: mbbeMergers, assignments: mbbeAssignments},
	bbe:  {label: "bbe", mergers: 16, assignments: 512, pathsPerMeta: 3},
}

// Options is what one embedding request varies: the algorithm (set by
// BBEOptions or MBBEOptions; the zero value runs MBBE), a delay bound, a
// trace and ban sets.
type Options struct {
	alg algorithm
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
// Backtracking Embedding method (Algorithm 1). Its bounds are generous:
// BBE explores many candidate sub-solutions per layer and enumerates
// alternative real-paths from its search trees, which is why its running
// time grows so much faster than MBBE's.
func BBEOptions() Options { return Options{alg: bbe} }

// MBBEOptions returns the configuration for the Mini-path BBE method
// (§4.5): bounded forward search (X_max), min-cost-path instantiation, and
// the X_d-tree pruning.
func MBBEOptions() Options { return Options{alg: mbbe} }

// Stats counts the work one embedding run performed.
type Stats struct {
	// ForwardSearches and BackwardSearches count search-tree builds.
	ForwardSearches  int
	BackwardSearches int
	// TreeNodes is the total number of FST/BST nodes materialized.
	TreeNodes int
	// Extensions is the number of candidate sub-solutions built (before
	// pruning; a lazy parallel layer builds only what its screen reaches,
	// see candidate, and a best-first last layer only what its answer needs,
	// see bestFirst); SubSolutions the number inserted into the tree — of a
	// best-first last layer, the children it kept before it found its answer.
	Extensions   int
	SubSolutions int
	// CapacityRejections counts parent×extension candidates discarded by
	// a capacity feasibility check; DelayRejections those pruned by the
	// delay bound. Both count only the candidates screened: under an X_d
	// cut without a delay bound a parent stops screening at the first
	// candidate that cannot make its cut.
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
	// run answered instead; under a best-first last layer, those it kept
	// before the answer), ClosureTreeNodes the share of PathTreeNodes the
	// one tree rooted at the destination settled in this run: as far as the
	// farthest leaf under BBE, all of it under MBBE, whose parallel-layer
	// search ranks its candidates by that tree from the first layer on.
	ClosureLeaves    int
	ClosureTreeNodes int
}

// Result is a successful embedding: the solution, its objective and the
// search statistics.
type Result struct {
	Solution *Solution
	Cost     Cost
	Stats    Stats
}

// EmbedBBE embeds the problem's DAG-SFC with the Breadth-first
// Backtracking Embedding method.
func EmbedBBE(p *Problem) (*Result, error) { return Embed(p, BBEOptions()) }

// EmbedMBBE embeds the problem's DAG-SFC with the Mini-path BBE method.
func EmbedMBBE(p *Problem) (*Result, error) { return Embed(p, MBBEOptions()) }

// Embed runs the BBE framework with explicit options. BBE and MBBE differ
// only in their fixed bounds (see algorithms), exactly as §4.5 describes MBBE
// as BBE plus three complementary strategies.
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
	label := algorithms[opts.alg].label
	if err := p.Validate(); err != nil {
		// Invalid instances are still failed embedding attempts: record
		// them so the attempts/failures metric families (and the online
		// acceptance dashboards built on them) do not undercount.
		telemetry.RecordEmbed(telemetry.EmbedSample{
			Alg: label, Elapsed: time.Since(start), Failed: true,
		})
		traceOutcome(opts.Trace, label, nil, err, nil)
		return nil, err
	}
	e := newEmbedder(ctx, p, opts, sc)
	res, err := e.run()
	traceOutcome(opts.Trace, label, res, err, &e.stats)
	telemetry.RecordPathCacheHits(e.treeHits)
	telemetry.RecordEmbed(telemetry.EmbedSample{
		Alg:           label,
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
	if opts.MaxDelay > 0 && opts.Delay == (DelayParams{}) {
		opts.Delay = DefaultDelayParams()
	}
	e := &sc.e
	*e = embedder{p: p, opts: opts, bounds: algorithms[opts.alg], ctx: ctx, ledger: p.LedgerOrFresh(), sc: sc}
	// The ledger is read-only for the whole run, so one CostOptions value
	// serves every search.
	e.costOpts = *e.ledger.CostOptions(p.Rate)
	// Read the ledger once into the run's dense rows, on the arena's storage:
	// every screen of the search reads them, and both tree stores bind over
	// the edge row. Only the SFC's categories and the merger's are read.
	m := sc.mem
	m.cats = append(m.cats[:0], p.Net.Catalog.Merger())
	for _, l := range p.SFC.Layers {
		m.cats = append(m.cats, l.VNFs...)
	}
	e.res = readResiduals(e.ledger, m.instRes, m.resBuf, m.cats...)
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
	// opts is the run's configuration, the delay model defaulted; bounds its
	// algorithm's.
	opts   Options
	bounds searchBounds
	// The reference switches, set by tests alone (embedReference): perLayer
	// keeps single-VNF runs away from the layered kernel, undirected withholds
	// the potential from terminal layered runs, perLeafClosure closes every
	// leaf with a tree of its own, eager runs Algorithm 1 under the run's
	// options — every candidate of a parallel layer built before it is
	// screened, a parallel last layer screened as any other and all its leaves
	// closed. Each is the slow path its replacement is tested against.
	perLayer, undirected, perLeafClosure, eager bool
	// ctx cancels the run between layers and before each unit of a list's
	// work; never nil (EmbedContext defaults it to Background).
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
	// lists holds the current layer's candidate lists, one per distinct
	// start node in first-appearance order, and layerExts[v] the position
	// plus one of start v's: every parent sub-solution ending on the same
	// node shares the same set of feasible layer embeddings. Indexed by
	// indexStarts, built and read by the screens, in the arena.
	lists     []candidateList
	layerExts []int32
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
	// the merger and host orderings, read once by run (when the SFC has a
	// parallel layer) off the price sum the graph keeps.
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
// first, so the first sub-solution of an end node is its cheapest. Frontiers
// sort by it stably over their screening order, so ties go by parent's
// frontier position, then candidate position; leaves by byTotal, likewise.
func bySubCost(a, b *subSolution) int {
	return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.cum, b.cum))
}

func byTotal(a, b leafCand) int {
	return cmp.Or(cmp.Compare(a.total, b.total), bySubCost(a.ss, b.ss))
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
	layered := e.bounds.miniPath && e.opts.MaxDelay == 0 && !e.perLayer
	perLayerUntil := 0
	if slices.ContainsFunc(specs, func(s LayerSpec) bool { return s.Merger }) {
		e.avgLink = p.Net.AvgLinkPrice()
		if e.bounds.miniPath {
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
		if i == len(specs)-1 && spec.Merger && e.lazy() {
			return e.bestFirst(spec, frontier, sp)
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
	slices.SortStableFunc(cands, byTotal)
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
	cost, err := validate(e.p, e.ledger, sol)
	if err != nil {
		return nil
	}
	return &Result{Solution: sol, Cost: cost, Stats: e.stats}
}

// searchLayer embeds one layer the paper's way — forward/backward search
// trees, candidate generation, per-parent screening — and returns the
// cost-sorted, pruned sub-solutions that become the next frontier. Each
// distinct start node's list is built when the first of its parents, in
// frontier order, is screened, its searches traced under the filter span.
func (e *embedder) searchLayer(spec LayerSpec, frontier []*subSolution, sp *telemetry.Span) ([]*subSolution, error) {
	m := e.sc.mem
	e.indexStarts(spec, frontier)
	filter := startSpan(sp, "filter")
	m.screens = sized(m.screens, len(frontier))
	screens := m.screens // clear: the last layer cleared what it used
	for i, parent := range frontier {
		e.screenParent(spec, parent, &screens[i], filter)
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
	clear(screens)
	clear(e.lists)
	e.stats.CapacityRejections += capRejected
	e.stats.DelayRejections += delayRejected
	endFilter(filter, considered, capRejected, delayRejected)
	// A cancelled run skips list builds, so an empty frontier here may mean
	// "cancelled", not "infeasible" — report the cancellation.
	if err := e.ctx.Err(); err != nil {
		return nil, err
	}
	if len(next) == 0 {
		return nil, fmt.Errorf("%w: layer %d has no feasible sub-solution", ErrNoEmbedding, spec.Index)
	}
	slices.SortStableFunc(next, bySubCost)
	next = e.truncateWithDelayDiversity(next, maxSubSolutionsPerLayer)
	e.stats.SubSolutions += len(next)
	if sp != nil {
		cheapest := slices.MinFunc(next, func(a, b *subSolution) int { return cmp.Compare(a.cum, b.cum) })
		endLayer(sp, len(next), cheapest.cum)
	}
	return next, nil
}

// rankFloor is a lower bound on the rank of every child that a parent of cost
// cum has from a candidate of q or more: every term is non-negative, so a
// child's rank, (cum+localCost)+toDst·Size rounded twice, is at least
// (cum + q/(1+u))(1−u)² with u = 2⁻⁵³, above (cum+q)·(1−2⁻⁵⁰) rounded.
func rankFloor(cum, q float64) float64 { return (cum + q) * (1 - 0x1p-50) }

// screenParent screens one parent's candidate extensions, in q order,
// against the delay bound and residual capacities, producing its children in
// bySubCost order, ties in candidate order, cut at X_d. Without a delay bound
// it stops once it holds X_d children and the next candidate's rankFloor is
// above the X_d-th lowest rank among them. The test runs first on a lower
// bound of every q left (leastQ), so a lazy list builds no candidate it
// discards. The list's work is traced under sp.
func (e *embedder) screenParent(spec LayerSpec, parent *subSolution, out *parentScreen, sp *telemetry.Span) {
	p, m := e.p, e.sc.mem
	cl := &e.lists[e.layerExts[parent.endNode(p.Src)]-1]
	e.candidate(cl, 0, sp) // the first read builds the list, which sizes the reservation below
	xd := e.bounds.xd
	bounded := xd > 0 && e.opts.MaxDelay <= 0
	low := m.ranks[:0] // the xd lowest ranks so far, ascending
	children := m.subPtrs.reserve(cap(cl.exts))
	stop := func(q float64) bool { return bounded && len(low) == xd && rankFloor(parent.cum, q) > low[xd-1] }
	for i := 0; !stop(cl.leastQ(i)); i++ {
		ext := e.candidate(cl, i, sp)
		if ext == nil || stop(ext.q) {
			break
		}
		out.considered++
		if e.opts.MaxDelay > 0 && parent.cumDelay+ext.delay > e.opts.MaxDelay {
			out.delayRejected++
			continue
		}
		if !feasibleAfter(p.Rate, &e.res, parent, ext) {
			out.capRejected++
			continue
		}
		child := e.extend(parent, ext, spec.Index)
		children = append(children, child)
		j := len(low)
		for bounded && j > 0 && low[j-1] > child.rank {
			j--
		}
		if bounded && j < xd {
			low = slices.Insert(low[:min(len(low), xd-1)], j, child.rank)
		}
	}
	m.ranks = low
	children = m.subPtrs.commit(children)
	slices.SortStableFunc(children, bySubCost)
	if xd > 0 {
		children = e.truncateWithDelayDiversity(children, xd)
	}
	out.children = children
}

// screenItem is an entry of bestFirst's queue: a parent's probe, whose next
// read is its list's candidate cand and rank a lower bound on the rank of
// every child it can still have (rankFloor of leastQ); a child, waiting for
// its parent's and the layer's cuts; or a leaf, closed by tail. key is a
// lower bound on the total of every leaf an entry can still become, a leaf's
// its total: a leaf's tail and toDst sum the same prices in other orders, so
// they differ by far less than lazyBoundSlack.
type screenItem struct {
	key, rank    float64
	ss           *subSolution
	tail         graph.Path
	parent, cand int32
	kind         uint8
}

const (
	probeItem uint8 = iota
	childItem
	leafItem
)

// before orders the queue. Probes and children go by key, then rank — the
// key is monotone in the rank — a probe before the children of its rank
// (it may yield one that ties), then as bySubCost and the frontier order break
// ties; a leaf goes after every probe or child of its key (they may yield a
// leaf of that total that sorts first), and among leaves as byTotal and the
// frontier order do.
func (a *screenItem) before(b *screenItem) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if al, bl := a.kind == leafItem, b.kind == leafItem; al != bl {
		return bl
	}
	switch {
	case a.rank != b.rank:
		return a.rank < b.rank
	case a.kind != b.kind:
		return a.kind < b.kind
	case a.kind == probeItem:
		return a.parent < b.parent
	case a.ss.cum != b.ss.cum:
		return a.ss.cum < b.ss.cum
	case a.parent != b.parent:
		return a.parent < b.parent
	}
	return a.cand < b.cand
}

// pushItem adds it to the heap q.
func pushItem(q []screenItem, it screenItem) []screenItem {
	q = append(q, it)
	for i := len(q) - 1; i > 0; {
		up := (i - 1) / 2
		if !q[i].before(&q[up]) {
			break
		}
		q[i], q[up] = q[up], q[i]
		i = up
	}
	return q
}

// popItem removes the heap q's first entry, zeroing the slot it vacates.
func popItem(q []screenItem) (screenItem, []screenItem) {
	top, n := q[0], len(q)-1
	q[0], q[n] = q[n], screenItem{}
	q = q[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q[c+1].before(&q[c]) {
			c++
		}
		if !q[c].before(&q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
		i = c
	}
	return top, q
}

// probeAt returns parent j's probe at its list's candidate i, keyed by what
// the list holds now, and false if it holds nothing from i on.
func (e *embedder) probeAt(parent *subSolution, j, i int32) (screenItem, bool) {
	cl := &e.lists[e.layerExts[parent.endNode(e.p.Src)]-1]
	if cl.fst != nil && int(i) >= len(cl.exts) && len(cl.order) == 0 {
		return screenItem{}, false
	}
	rank := rankFloor(parent.cum, cl.leastQ(int(i)))
	return screenItem{key: rank * (1 - lazyBoundSlack), rank: rank, parent: j, cand: i}, true
}

// probe pushes parent j's probe at its list's candidate i onto q, if any.
func (e *embedder) probe(q []screenItem, parent *subSolution, j, i int32) []screenItem {
	if it, ok := e.probeAt(parent, j, i); ok {
		q = pushItem(q, it)
	}
	return q
}

// bestFirst searches the run's last layer, a parallel one, for the run's
// answer: what screenParent, searchLayer's cut and the closure would return,
// found by one queue across every parent. A probe popped hands its parent
// the next candidate or does one unit of its list's work (see step), the
// first of which builds the list; a child popped is its parent's next by rank,
// kept unless its parent has X_d or the layer maxSubSolutionsPerLayer, and
// closed to the destination; a leaf popped is the cheapest that any kept
// child can still give, and the first that validates is the answer. The
// parents of one list share its work, which only raises their keys: a probe
// keyed before another moved its list on goes back under its new key. Lists
// are built, and pairs opened, under the layer's filter span.
func (e *embedder) bestFirst(spec LayerSpec, frontier []*subSolution, sp *telemetry.Span) (*Result, error) {
	p, m := e.p, e.sc.mem
	floor := p.Net.MinRent(p.Net.Catalog.Merger())
	for _, f := range spec.VNFs {
		floor += p.Net.MinRent(f)
	}
	lists := e.indexStarts(spec, frontier)
	for i := range lists {
		lists[i].unbuilt = (floor*p.Size + e.toDst[lists[i].start]*p.Size) * (1 - lazyBoundSlack)
	}
	filter := startSpan(sp, "filter")
	kept := m.idx.alloc(len(frontier))
	q := m.queue[:0]
	for j, parent := range frontier {
		q = e.probe(q, parent, int32(j), 0)
	}
	var res *Result
	var err error
	children, considered, capRejected, cheapest := 0, 0, 0, math.Inf(1)
	for len(q) > 0 && res == nil && err == nil {
		var it screenItem
		it, q = popItem(q)
		parent := frontier[it.parent]
		cl := &e.lists[e.layerExts[parent.endNode(p.Src)]-1]
		switch {
		case it.kind == leafItem:
			res = e.complete(it.ss, it.tail)
		case math.IsInf(it.key, 1) && children > 0:
			clear(q) // every way on left is +Inf: no leaf to close
			q = q[:0]
		case int(kept[it.parent]) == e.bounds.xd || children == maxSubSolutionsPerLayer:
		case it.kind == childItem:
			kept[it.parent]++
			children++
			cheapest = min(cheapest, it.ss.cum)
			if tail, ok := e.tailPath(it.ss.endNode(p.Src)); ok {
				it.kind, it.key, it.tail = leafItem, it.ss.cum+tail.Cost(p.Net.G)*p.Size, tail
				q = pushItem(q, it)
			}
		default:
			switch fresh, ok := e.probeAt(parent, it.parent, it.cand); {
			case !ok:
			case it.before(&fresh):
				q = pushItem(q, fresh)
			case int(it.cand) < len(cl.exts):
				considered++
				if ext := cl.exts[it.cand]; feasibleAfter(p.Rate, &e.res, parent, ext) {
					child := e.extend(parent, ext, spec.Index)
					q = pushItem(q, screenItem{key: child.rank * (1 - lazyBoundSlack), rank: child.rank, ss: child,
						parent: it.parent, cand: it.cand, kind: childItem})
				} else {
					capRejected++
				}
				q = e.probe(q, parent, it.parent, it.cand+1)
			case e.ctx.Err() != nil:
				err = e.ctx.Err()
			default:
				e.step(cl, filter)
				q = e.probe(q, parent, it.parent, it.cand)
			}
		}
	}
	clear(q) // popItem zeroed the rest
	m.queue = q[:0]
	clear(e.lists)
	e.stats.CapacityRejections += capRejected
	e.stats.SubSolutions += children
	e.stats.ClosureLeaves = children
	endFilter(filter, considered, capRejected, 0)
	if err != nil || children == 0 {
		endSpan(sp)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%w: layer %d has no feasible sub-solution", ErrNoEmbedding, spec.Index)
	}
	endLayer(sp, children, cheapest)
	endClosure(startSpan(e.opts.Trace, "closure"), e.stats.ClosureLeaves, e.stats.ClosureTreeNodes)
	if res == nil {
		return nil, fmt.Errorf("%w: no leaf reaches the destination feasibly", ErrNoEmbedding)
	}
	res.Stats = e.stats
	return res, nil
}

// indexStarts fills layerExts for every distinct start node of the frontier
// and sizes lists to them, in first-appearance order, each holding only its
// start.
func (e *embedder) indexStarts(spec LayerSpec, frontier []*subSolution) []candidateList {
	m := e.sc.mem
	e.layerExts = m.idx.alloc(e.p.Net.G.NumNodes())
	m.lists = m.lists[:0]
	for _, parent := range frontier {
		if start := parent.endNode(e.p.Src); e.layerExts[start] == 0 {
			m.lists = append(m.lists, candidateList{spec: spec, start: start})
			e.layerExts[start] = int32(len(m.lists))
		}
	}
	e.lists = m.lists
	return e.lists
}

// buildExtensions fills cl, indexed but unbuilt, with its (layer, start)
// candidate set: the forward search, then for a single-VNF layer its hosts'
// candidates, for a parallel layer its FST–BST pairs over the kept mergers —
// left unopened in a lazy list (see pendPairs), else each opened and its
// assignments built — and the trim to the cheapest maxExtensionsPerStart.
// With min-cost-path instantiation the forward search runs one ring past
// coverage: the paths no longer come from the tree, so the tree is only the
// candidate set (bare of Table 1's adjacency), and the nearest cover is
// rarely the cheapest. The searches and the build are traced under sp.
func (e *embedder) buildExtensions(cl *candidateList, sp *telemetry.Span) {
	p, m, spec, start := e.p, e.sc.mem, cl.spec, cl.start
	fwd := startAt(sp, "forward-search", start)
	cfg := searchConfig{required: m.required[spec.Index-1], maxNodes: e.bounds.xmax, res: &e.res, view: e.searchView, mem: m,
		bare: e.bounds.miniPath}
	if e.bounds.miniPath {
		cfg.ringsPast = 1
	}
	fst := runSearch(p, start, cfg)
	*cl = candidateList{spec: spec, start: start, fst: fst, memo: m.interMemo.begin(p.Net.G.NumNodes())}
	e.stats.ForwardSearches++
	e.stats.TreeNodes += fst.Size()
	endSearch(fwd, fst.Size(), fst.Covered())
	cand := startAt(sp, "candidates", start)
	if !fst.Covered() {
		endCandidates(cand, 0, 0)
		return
	}
	exts := m.extBuf[:0]
	if !spec.Merger {
		exts = e.singleVNFExtensions(exts, spec, start, fst)
	} else {
		// The first mergers discovered, or in a run with a sense of direction
		// the cheapest-looking, before any backward search is built: rent, a
		// hop-based estimate of the way there, the way on.
		cat := [1]network.VNFID{p.Net.Catalog.Merger()}
		var mergers [1][]*TreeNode
		var key func(int, *TreeNode) float64
		if e.toDst != nil {
			rent := p.Net.Rents(cat[0])
			key = func(_ int, tn *TreeNode) float64 {
				return rent[tn.Node] + float64(tn.Iteration-1)*e.avgLink + e.toDst[tn.Node]
			}
		}
		fst.nodesByKey(mergers[:], cat[:], e.bounds.mergers, key)
		if e.lazy() {
			e.pendPairs(cl, mergers[0])
			if cand != nil {
				cand.SetAttr("pending_pairs", len(mergers[0]))
			}
			endSpan(cand)
			return
		}
		m.hosts = sized(m.hosts, len(spec.VNFs))
		for _, merger := range mergers[0] {
			if e.ctx.Err() != nil {
				break
			}
			if pr, ok := e.openPair(spec, fst, merger, m.hosts, cand); ok {
				e.eachAssignment(&pr, func(assignment []*TreeNode) {
					exts = e.buildAssignment(exts, cl, pr.bst, pr.merger, pr.memo, assignment)
				})
			}
		}
		clear(m.hosts)
	}
	generated := len(exts)
	// An exact-size carve of the candidates; the growable buffer they were
	// collected in goes back, cleared, for the next build.
	kept := m.extPtrs.alloc(generated)
	copy(kept, exts)
	clear(exts)
	m.extBuf = exts[:0]
	cl.exts = e.trimExtensions(kept, maxExtensionsPerStart)
	endCandidates(cand, generated, len(cl.exts))
}

// truncateWithDelayDiversity keeps the cheapest limit sub-solutions (the
// input is cost-sorted); see keepFastest.
func (e *embedder) truncateWithDelayDiversity(children []*subSolution, limit int) []*subSolution {
	return keepFastest(children, limit, e.opts.MaxDelay > 0, func(ss *subSolution) float64 { return ss.cumDelay },
		func(a, b *subSolution) bool { return bySubCost(a, b) < 0 })
}

// keepFastest keeps the first limit of the sorted items, except that in
// delay-bounded mode the fastest item always survives: otherwise a loose
// budget lets cheap-but-slow candidates crowd out the fast ones at
// truncation, making feasibility non-monotone in the budget (a tighter budget
// could succeed where a looser one failed). The input is never mutated — its
// backing array may be cached or shared — so a surviving out-of-prefix item
// is inserted at its ordered position, after its equals, on a fresh copy.
func keepFastest[T comparable](items []T, limit int, delayBounded bool, delay func(T) float64, less func(a, b T) bool) []T {
	if len(items) <= limit {
		return items
	}
	if !delayBounded {
		return items[:limit]
	}
	fastest := items[0]
	for _, it := range items[1:] {
		if delay(it) < delay(fastest) {
			fastest = it
		}
	}
	if slices.Contains(items[:limit], fastest) {
		return items[:limit]
	}
	out := append(make([]T, 0, limit), items[:limit-1]...)
	pos := sort.Search(len(out), func(i int) bool { return less(fastest, out[i]) })
	return slices.Insert(out, pos, fastest)
}

// annotateDelay fills ext.delay in delay-bounded mode.
func (e *embedder) annotateDelay(spec LayerSpec, ext *extension) {
	if e.opts.MaxDelay <= 0 || ext == nil {
		return
	}
	ext.delay = e.opts.Delay.layerDelay(ext.interPaths, ext.innerPaths, spec.Merger)
}

// trimExtensions keeps the cheapest limit extensions by local cost, the
// fastest surviving in delay-bounded mode (see keepFastest), and returns them
// in q order, the part of a child's rank its parent does not change, which
// screenParent reads them in: without toDst q is the local cost, so the
// order is the cut's.
func (e *embedder) trimExtensions(exts []*extension, limit int) []*extension {
	if e.toDst == nil || len(exts) > limit {
		slices.SortFunc(exts, func(a, b *extension) int { return cmp.Compare(a.localCost, b.localCost) })
		exts = keepFastest(exts, limit, e.opts.MaxDelay > 0, func(ext *extension) float64 { return ext.delay },
			func(a, b *extension) bool { return a.localCost < b.localCost })
	}
	for _, ext := range exts {
		e.setQ(ext)
	}
	if e.toDst != nil {
		slices.SortStableFunc(exts, func(a, b *extension) int { return cmp.Compare(a.q, b.q) })
	}
	return exts
}

// setQ sets ext.q: its local cost plus, in a run that knows the way, the
// way on from its end node.
func (e *embedder) setQ(ext *extension) {
	ext.q = ext.localCost
	if e.toDst != nil {
		ext.q += e.toDst[ext.endNode] * e.p.Size
	}
}

// singleVNFExtensions appends the candidates of a single-VNF layer: no
// merger, no backward search; the layer's end node is the VNF's node.
func (e *embedder) singleVNFExtensions(exts []*extension, spec LayerSpec, start graph.NodeID, fst *SearchTree) []*extension {
	m := e.sc.mem
	for _, tn := range fst.nodes {
		if !slices.Contains(tn.Available, spec.VNFs[0]) {
			continue
		}
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

// openPair opens one FST–BST pair (§4.4.1): the backward search from the
// merger, traced under the build's candidates span, and, once it covers,
// the hosts per VNF into hosts, all k lists in one pass over the BST,
// cheapest-looking first: rental price plus a hop-based link-price estimate toward the merger
// and, in a run with a sense of direction, from the start. Within A steps
// the odometer reads no list past index A-1, so each list is cut to the A
// cheapest.
func (e *embedder) openPair(spec LayerSpec, fst *SearchTree, mergerTN *TreeNode, hosts [][]*TreeNode,
	cand *telemetry.Span) (fstPair, bool) {
	p, m := e.p, e.sc.mem
	bwd := startAt(cand, "backward-search", mergerTN.Node)
	bst := runSearch(p, mergerTN.Node, searchConfig{
		required: spec.VNFs,
		within:   fst,
		res:      &e.res,
		view:     e.searchView,
		mem:      m,
		bare:     e.bounds.miniPath,
	})
	e.stats.BackwardSearches++
	e.stats.TreeNodes += bst.Size()
	endSearch(bwd, bst.Size(), bst.Covered())
	if !bst.Covered() {
		return fstPair{}, false
	}
	// The BST is covered, so no list is empty.
	bst.nodesByKey(hosts, spec.VNFs, e.bounds.assignments, func(i int, tn *TreeNode) float64 {
		h := tn.Iteration - 1
		if e.toDst != nil {
			h += fst.NodeOf(tn.Node).Iteration - 1
		}
		return p.Net.Rents(spec.VNFs[i])[tn.Node] + float64(h)*e.avgLink
	})
	return fstPair{merger: mergerTN, bst: bst, hosts: hosts, memo: m.innerMemo.begin(p.Net.G.NumNodes())}, true
}

// eachAssignment walks pr's allocations as an odometer over its host lists,
// the last VNF's host turning fastest — the order a depth-first enumeration
// visits them in — at most the algorithm's assignments of them, and hands
// each to visit, which must not keep the slice.
func (e *embedder) eachAssignment(pr *fstPair, visit func(assignment []*TreeNode)) {
	m := e.sc.mem
	k := len(pr.hosts)
	assignment, idx := m.ptrs.alloc(k), m.idx.alloc(k)
	for count := 0; count < e.bounds.assignments; count++ {
		for i := range assignment {
			assignment[i] = pr.hosts[i][idx[i]]
		}
		visit(assignment)
		i := k - 1
		for ; i >= 0; i-- {
			if idx[i]++; int(idx[i]) < len(pr.hosts[i]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
}

// buildAssignment appends to exts what one assignment over the pair of
// cl's forward search and bst, merging on merger, builds: its meta-paths
// are walked under cl's memo stamp and the pair's, memo.
func (e *embedder) buildAssignment(exts []*extension, cl *candidateList, bst *SearchTree, merger *TreeNode, memo uint32,
	assignment []*TreeNode) []*extension {
	m := e.sc.mem
	m.interMemo.serve(cl.memo)
	m.innerMemo.serve(memo)
	return e.instantiate(exts, cl.spec, cl.start, cl.fst, bst, merger, assignment)
}

// instantiate appends to exts the extension(s) for one concrete VNF
// allocation: the base variant uses the first discovered real-path per
// meta-path (or the min-cost path under miniPath); in BBE mode, alternative
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
	if !e.bounds.miniPath || e.opts.MaxDelay > 0 {
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
// FST node tn, in start→node direction. Every assignment of the (layer,
// start) list that places a VNF on tn's node asks for the same meta-path, so
// it is walked once and the choices shared, read-only, from then on.
func (e *embedder) interPaths(fst *SearchTree, tn *TreeNode, start graph.NodeID) []graph.Path {
	memo := &e.sc.mem.interMemo
	if choices, ok := memo.get(tn.Node); ok {
		return choices
	}
	var out []graph.Path
	if e.bounds.miniPath {
		if path, ok := e.minCostPath(start, tn.Node); ok {
			out = e.withHopVariant(start, tn.Node, path)
		}
	} else {
		raw := fst.PathsToRoot(tn, e.bounds.pathsPerMeta)
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
// pair like interPaths' per list.
func (e *embedder) innerPaths(bst *SearchTree, tn *TreeNode, mergerNode graph.NodeID) []graph.Path {
	memo := &e.sc.mem.innerMemo
	if choices, ok := memo.get(tn.Node); ok {
		return choices
	}
	var out []graph.Path
	if e.bounds.miniPath {
		// One tree rooted at the merger serves every inner path of the
		// pair, walked in node→merger direction.
		if path, ok := e.minCostPathFrom(mergerNode, tn.Node); ok {
			out = e.withHopVariant(tn.Node, mergerNode, path)
		}
	} else {
		out = bst.PathsToRoot(tn, e.bounds.pathsPerMeta)
	}
	memo.put(tn.Node, out)
	return out
}
