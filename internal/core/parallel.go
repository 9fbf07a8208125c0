package core

import (
	"sync"
	"sync/atomic"

	"dagsfc/internal/graph"
)

// This file holds the worker-pool plumbing behind Options.Workers. The
// design keeps parallel runs bit-identical to sequential ones:
//
//   - Each unit of fanned-out work (a start node's forward build, one
//     FST–BST pair enumeration, one parent's candidate screening) writes
//     only to a slot it exclusively owns, plus a private buildSink for
//     its Stats delta and Observer events.
//   - Fan-in happens on the calling goroutine, walking the slots in the
//     order the sequential loop would have produced them; sinks are
//     merged (integer stat sums, event replay) in that order.
//   - Shared embedder state read during a job — the problem, the ledger,
//     the completed extCache of earlier layers — is read-only for the
//     duration of a run; the Dijkstra tree memo is singleflight-guarded.

// obsEvent is one buffered Observer callback, replayed at fan-in on the
// calling goroutine so the Observer contract ("all callbacks arrive from
// the calling goroutine, in search order") holds under any Workers value.
type obsEvent func(Observer)

// buildSink is a job's private accumulator: its Stats delta plus the
// Observer events it would have fired. Events are only buffered when an
// observer is configured (record).
type buildSink struct {
	record bool
	stats  Stats
	events []obsEvent
}

func (s *buildSink) searchStart(layer int, start graph.NodeID, forward bool) {
	if s.record {
		s.events = append(s.events, func(o Observer) { o.SearchStart(layer, start, forward) })
	}
}

func (s *buildSink) searchDone(layer int, start graph.NodeID, forward bool, size int, covered bool) {
	if s.record {
		s.events = append(s.events, func(o Observer) { o.SearchDone(layer, start, forward, size, covered) })
	}
}

func (s *buildSink) extensionsBuilt(layer int, start graph.NodeID, generated, kept int) {
	if s.record {
		s.events = append(s.events, func(o Observer) { o.ExtensionsBuilt(layer, start, generated, kept) })
	}
}

// mergeSink folds one job's sink into the run on the calling goroutine:
// stats are summed (order-independent integer adds) and buffered observer
// events replayed in the order the job recorded them.
func (e *embedder) mergeSink(s *buildSink) {
	e.stats.add(s.stats)
	if e.opts.Observer != nil {
		for _, ev := range s.events {
			ev(e.opts.Observer)
		}
	}
	s.events = nil
}

// startBuild is the owned slot for one (layer, start node) extension
// build. Phase A (runForward) fills fst/uncovered/exts/pairs; phase B
// fills each pair's slot; finishStart merges everything in order.
type startBuild struct {
	start graph.NodeID
	sink  buildSink
	fst   *SearchTree
	// inFST is fst.Contains, bound once for all of the start's backward
	// searches rather than once per pair.
	inFST     func(graph.NodeID) bool
	uncovered bool
	// exts holds the single-VNF candidates (non-merger layers); merger
	// layers collect theirs per pair instead.
	exts  []*extension
	pairs []pairBuild
}

// pairBuild is the owned slot for one FST–BST pair enumeration.
type pairBuild struct {
	owner  *startBuild
	merger *TreeNode
	sink   buildSink
	exts   []*extension
}

// forEach runs fn(slot, 0..n-1) across the worker pool. With one worker
// (or one item) it degrades to an inline loop on the calling goroutine —
// the Workers=1 sequential path spawns no goroutines at all. slot is the
// index of the worker goroutine running the job (0..workers-1): each slot
// is owned by exactly one goroutine for the duration of the call, so
// per-slot resources (the pooled search scratch) need no locking. fn must
// write only to state owned by index i.
func (e *embedder) forEach(n int, fn func(slot, i int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(slot, i)
			}
		}(w)
	}
	wg.Wait()
}

// buildLayerExtensions fills extCache for every distinct start node of
// the frontier, fanning the work across the pool in two phases: phase A
// runs the forward searches (one job per distinct start), phase B the
// FST–BST pair enumerations (one job per pair, flattened across starts so
// a layer with few starts but many mergers still saturates the pool).
// The serial fan-in then walks starts in first-appearance frontier order
// — the exact order the sequential loop builds them — so cache contents,
// stats and observer events are identical for every Workers value.
func (e *embedder) buildLayerExtensions(spec LayerSpec, frontier []*subSolution) {
	p := e.p
	seen := make(map[graph.NodeID]bool, len(frontier))
	builds := make([]*startBuild, 0, len(frontier))
	for _, parent := range frontier {
		start := parent.endNode(p.Src)
		if seen[start] {
			continue
		}
		seen[start] = true
		builds = append(builds, &startBuild{start: start, sink: buildSink{record: e.opts.Observer != nil}})
	}
	required := spec.Required(p.Net.Catalog)
	// Skipping jobs once the context is done leaves the layer's extension
	// sets incomplete; run() re-checks the context before interpreting an
	// empty frontier, so a cancelled run reports ctx.Err(), never a bogus
	// ErrNoEmbedding.
	e.forEach(len(builds), func(slot, i int) {
		if e.ctx.Err() != nil {
			return
		}
		e.runForward(builds[i], spec, required, e.scratch[slot])
	})
	npairs := 0
	for _, b := range builds {
		npairs += len(b.pairs)
	}
	pairs := make([]*pairBuild, 0, npairs)
	for _, b := range builds {
		for i := range b.pairs {
			pairs = append(pairs, &b.pairs[i])
		}
	}
	e.forEach(len(pairs), func(slot, i int) {
		if e.ctx.Err() != nil {
			return
		}
		pb := pairs[i]
		pb.exts = e.pairExtensions(pb, spec, e.scratch[slot])
	})
	for _, b := range builds {
		e.extCache[extKey{layer: spec.Index, start: b.start}] = e.finishStart(spec, b)
	}
}
