package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// libRunner drives the library path on one goroutine: core.Embed with
// the MBBE options, core.Commit on the live ledger, core.Release of the
// oldest standing flow. No server, no WAL, no HTTP.
type libRunner struct {
	sp     spec
	net    *network.Network
	ledger *network.Ledger
	seed   residuals
	opts   core.Options
	// tracedOpts adds the cross-request caches, which are the only way
	// to count Dijkstra trees and view compiles from outside the search;
	// used in traced rounds only.
	tracedOpts core.Options
}

func newLibRunner(sp spec) (*libRunner, error) {
	nw, err := sp.substrate()
	if err != nil {
		return nil, err
	}
	r := &libRunner{sp: sp, net: nw, ledger: network.NewLedger(nw), opts: core.MBBEOptions()}
	r.seed = ledgerResiduals(nw, r.ledger)
	// The server registers these families when it starts; a library-only
	// process has to, or an untouched counter reads as a missing family.
	telemetry.InitPathCacheMetrics()
	telemetry.InitCostViewMetrics()
	r.tracedOpts = r.opts
	r.tracedOpts.PathCache = graph.NewTreeCache(0)
	r.tracedOpts.ViewCache = graph.NewViewCache(0)
	return r, nil
}

// probeEvery is the cadence of the traced pass's out-of-span probes
// (kernel timings, exact allocation deltas, fsync).
const probeEvery = 16

// libFlow is a standing reservation: what core.Release needs.
type libFlow struct {
	p   *core.Problem
	sol *core.Solution
}

func (r *libRunner) round(ops []op, _ []faultEvent, tr *tracer) (roundResult, error) {
	res := roundResult{Ops: len(ops), Lat: make([]float64, 0, len(ops)), Costs: make([]float64, len(ops))}
	opts := r.opts
	if tr != nil {
		opts = r.tracedOpts
	}
	standing := make([]libFlow, 0, len(ops))
	oldest := 0
	var lastEpoch uint64
	res.Before = sampleProc()
	start := time.Now()
	for i := range ops {
		o := &ops[i]
		p := &core.Problem{
			Net: r.net, Ledger: r.ledger, SFC: o.DAG,
			Src: graph.NodeID(o.Req.Src), Dst: graph.NodeID(o.Req.Dst),
			Rate: o.Req.Rate, Size: o.Req.Size,
		}
		root := tr.begin(i, 0, "bench.op")
		// ReadMemStats stops the world, so the exact per-call allocation
		// figures are sampled on the probe cadence, not on every op.
		probe := tr != nil && i%probeEvery == 0
		var m0, m1 runtime.MemStats
		if tr != nil {
			if ep := r.ledger.ViewEpoch(); ep != lastEpoch {
				tr.count("network.epoch_moves", 1)
				lastEpoch = ep
			}
		}
		if probe {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		sp := tr.begin(i, root, "core.embed")
		out, err := core.Embed(p, opts)
		tr.end(sp)
		if probe {
			runtime.ReadMemStats(&m1)
			tr.sample("core.embed_allocs", float64(m1.Mallocs-m0.Mallocs))
			tr.sample("core.embed_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1024)
		}
		if err != nil {
			res.Lat = append(res.Lat, msSince(t0))
			tr.end(root)
			if !errors.Is(err, core.ErrNoEmbedding) {
				res.Errors++
			}
			continue
		}
		if tr != nil {
			// The explicit form of what Commit re-does internally, so the
			// validator has a span of its own.
			sp = tr.begin(i, root, "core.validate")
			verr := core.Validate(p, out.Solution)
			cc, cerr := core.ComputeCost(p, out.Solution)
			tr.end(sp)
			if verr != nil || cerr != nil {
				return res, fmt.Errorf("op %d: accepted solution fails validation: %v %v", i, verr, cerr)
			}
			if cc.Total() != out.Cost.Total() {
				return res, fmt.Errorf("op %d: reported cost %v, ComputeCost %v", i, out.Cost.Total(), cc.Total())
			}
		}
		sp = tr.begin(i, root, "network.commit")
		cb, err := core.Commit(p, out.Solution)
		tr.end(sp)
		res.Lat = append(res.Lat, msSince(t0))
		if err != nil {
			// One goroutine, no concurrent commits: the solution came out
			// of this very ledger, so failing to reserve it is a bug.
			return res, fmt.Errorf("op %d: commit of a fresh solution failed: %w", i, err)
		}
		// Commit validates (eqs. 2–6) and prices (eq. 1) the solution
		// itself; the search's reported cost must be that price.
		if cb.Total() != out.Cost.Total() {
			return res, fmt.Errorf("op %d: reported cost %v, committed cost %v", i, out.Cost.Total(), cb.Total())
		}
		res.Accepted++
		res.CostSum += cb.Total()
		res.Costs[i] = cb.Total()
		addStats(&res.Stats, out.Stats)
		standing = append(standing, libFlow{p, out.Solution})
		if len(standing)-oldest > r.sp.Standing {
			f := standing[oldest]
			standing[oldest] = libFlow{}
			oldest++
			sp = tr.begin(i, root, "network.release")
			err = core.Release(f.p, f.sol)
			tr.end(sp)
			if err != nil {
				return res, fmt.Errorf("op %d: release: %w", i, err)
			}
		}
		tr.end(root)
		if probe {
			probeGraph(tr, r.net, r.ledger, p, out.Solution)
		}
	}
	res.closeWall(start)
	for _, f := range standing[oldest:] {
		if err := core.Release(f.p, f.sol); err != nil {
			return res, fmt.Errorf("drain: %w", err)
		}
	}
	return res, nil
}

// probeGraph times the graph layer's exported kernels at the live ledger
// state, outside any op span: a view compile, one Dijkstra tree from the
// op's source, and the same with the op's own links banned (the search a
// backup embed runs).
func probeGraph(tr *tracer, nw *network.Network, ledger *network.Ledger, p *core.Problem, sol *core.Solution) {
	opts := ledger.CostOptions(p.Rate)
	t0 := time.Now()
	view := nw.G.CompileView(opts)
	tr.sample("graph.compile_view_us", usSince(t0))

	sc := graph.GetScratch()
	defer graph.PutScratch(sc)
	t0 = time.Now()
	view.DijkstraWith(sc, p.Src)
	tr.sample("graph.dijkstra_us", usSince(t0))

	banned := *opts
	banned.BannedEdges = make(map[graph.EdgeID]bool)
	sol.VisitEdges(func(e graph.EdgeID) { banned.BannedEdges[e] = true })
	bview := nw.G.CompileView(&banned)
	t0 = time.Now()
	bview.DijkstraWith(sc, p.Src)
	tr.sample("graph.dijkstra_banned_us", usSince(t0))
}

func (r *libRunner) check() error {
	return r.seed.equal(ledgerResiduals(r.net, r.ledger))
}

func (r *libRunner) close() error { return nil }

func addStats(dst *core.Stats, s core.Stats) {
	dst.ForwardSearches += s.ForwardSearches
	dst.BackwardSearches += s.BackwardSearches
	dst.TreeNodes += s.TreeNodes
	dst.Extensions += s.Extensions
	dst.SubSolutions += s.SubSolutions
	dst.CapacityRejections += s.CapacityRejections
	dst.DelayRejections += s.DelayRejections
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// residuals is a residual-capacity snapshot: every link, then every
// instance in (node, category) order.
type residuals struct {
	links     []float64
	instances []float64
}

func ledgerResiduals(nw *network.Network, l *network.Ledger) residuals {
	var r residuals
	r.links = l.EdgeResiduals(make([]float64, nw.G.NumEdges()))
	for v := 0; v < nw.G.NumNodes(); v++ {
		for _, f := range nw.VNFsAt(graph.NodeID(v)) {
			r.instances = append(r.instances, l.InstanceResidual(graph.NodeID(v), f))
		}
	}
	return r
}

// equal compares float-exactly: with every rate 1 a drained ledger holds
// the very bits it started with, or something leaked.
func (a residuals) equal(b residuals) error {
	if len(a.links) != len(b.links) || len(a.instances) != len(b.instances) {
		return fmt.Errorf("residual snapshot shape changed: %d/%d links, %d/%d instances",
			len(a.links), len(b.links), len(a.instances), len(b.instances))
	}
	for i := range a.links {
		if a.links[i] != b.links[i] {
			return fmt.Errorf("link %d residual %v, seed %v", i, b.links[i], a.links[i])
		}
	}
	for i := range a.instances {
		if a.instances[i] != b.instances[i] {
			return fmt.Errorf("instance #%d residual %v, seed %v", i, b.instances[i], a.instances[i])
		}
	}
	return nil
}
