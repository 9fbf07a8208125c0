package core

import "dagsfc/internal/graph"

// Observer receives progress callbacks from one Embed run. All callbacks
// arrive from the calling goroutine, in search order; an implementation
// must not retain the pointers past the callback. Useful for debugging,
// tracing and teaching the algorithm — see TraceRecorder for a ready-made
// implementation that builds a telemetry span tree.
//
// Extension building is memoized per (layer, start node): SearchStart,
// SearchDone and ExtensionsBuilt fire only when a layer's extensions are
// actually built, not on cache hits for later parents sharing the start.
//
// Every layer gets exactly one LayerStart/LayerDone pair, in layer order.
// A maximal run of single-VNF layers a–b that the layered kernel answers
// (MiniPath set, no delay bound — see layered.go) is one search, not b−a+1
// of them, and reports itself under its first layer:
//
//	LayerStart(a, parents)
//	SearchStart(a, first seed, forward)   one per run
//	SearchDone(a, first seed, forward, treeSize = states settled, covered = a walk was found)
//	CandidatesFiltered(a, considered = walks proposed, capacityRejected = those feasibleAfter or Validate turned down, 0)
//	LayeredRun(run)
//	LayerDone(a, kept, cheapest)
//	LayerStart(a+1, kept) LayerDone(a+1, kept, cheapest) … through b
//
// with kept the surviving walks and cheapest the least cumulative cost
// among them at that layer; no ExtensionsBuilt fires. When every walk is
// turned down (LayeredRun.Fallback is set) the sequence stops after
// LayeredRun and the per-layer search continues layer a from its own
// SearchStart — without a second LayerStart(a).
type Observer interface {
	// LayerStart fires when the search begins embedding a layer, with the
	// number of parent sub-solutions whose extensions will be explored.
	LayerStart(spec LayerSpec, parents int)
	// SearchStart fires when a forward (FST) or backward (BST) search
	// begins from start.
	SearchStart(layer int, start graph.NodeID, forward bool)
	// SearchDone fires after each forward or backward search.
	SearchDone(layer int, start graph.NodeID, forward bool, treeSize int, covered bool)
	// ExtensionsBuilt fires after candidate generation for one
	// (layer, start): generated counts the raw extensions enumerated,
	// kept the survivors of the per-start trim.
	ExtensionsBuilt(layer int, start graph.NodeID, generated, kept int)
	// CandidatesFiltered fires once per layer after every parent's
	// candidates have been screened: considered counts parent×extension
	// combinations, capacityRejected those failing a capacity check,
	// delayRejected those pruned by the delay bound.
	CandidatesFiltered(layer int, considered, capacityRejected, delayRejected int)
	// LayeredRun fires once per run of single-VNF layers searched by the
	// layered kernel, after the run's CandidatesFiltered and before its
	// first LayerDone.
	LayeredRun(run LayeredRun)
	// LayerDone fires when a layer's sub-solutions have been selected,
	// with the cheapest cumulative cost of the survivors.
	LayerDone(spec LayerSpec, kept int, cheapest float64)
	// Leaf fires for the winning complete solution just before Embed
	// returns it.
	Leaf(total float64)
}

// FuncObserver adapts plain functions to Observer; nil fields are
// skipped.
type FuncObserver struct {
	OnLayerStart         func(spec LayerSpec, parents int)
	OnSearchStart        func(layer int, start graph.NodeID, forward bool)
	OnSearchDone         func(layer int, start graph.NodeID, forward bool, treeSize int, covered bool)
	OnExtensionsBuilt    func(layer int, start graph.NodeID, generated, kept int)
	OnCandidatesFiltered func(layer int, considered, capacityRejected, delayRejected int)
	OnLayeredRun         func(run LayeredRun)
	OnLayerDone          func(spec LayerSpec, kept int, cheapest float64)
	OnLeaf               func(total float64)
}

// LayerStart implements Observer.
func (f FuncObserver) LayerStart(spec LayerSpec, parents int) {
	if f.OnLayerStart != nil {
		f.OnLayerStart(spec, parents)
	}
}

// SearchStart implements Observer.
func (f FuncObserver) SearchStart(layer int, start graph.NodeID, forward bool) {
	if f.OnSearchStart != nil {
		f.OnSearchStart(layer, start, forward)
	}
}

// SearchDone implements Observer.
func (f FuncObserver) SearchDone(layer int, start graph.NodeID, forward bool, treeSize int, covered bool) {
	if f.OnSearchDone != nil {
		f.OnSearchDone(layer, start, forward, treeSize, covered)
	}
}

// ExtensionsBuilt implements Observer.
func (f FuncObserver) ExtensionsBuilt(layer int, start graph.NodeID, generated, kept int) {
	if f.OnExtensionsBuilt != nil {
		f.OnExtensionsBuilt(layer, start, generated, kept)
	}
}

// CandidatesFiltered implements Observer.
func (f FuncObserver) CandidatesFiltered(layer int, considered, capacityRejected, delayRejected int) {
	if f.OnCandidatesFiltered != nil {
		f.OnCandidatesFiltered(layer, considered, capacityRejected, delayRejected)
	}
}

// LayeredRun implements Observer.
func (f FuncObserver) LayeredRun(run LayeredRun) {
	if f.OnLayeredRun != nil {
		f.OnLayeredRun(run)
	}
}

// LayerDone implements Observer.
func (f FuncObserver) LayerDone(spec LayerSpec, kept int, cheapest float64) {
	if f.OnLayerDone != nil {
		f.OnLayerDone(spec, kept, cheapest)
	}
}

// Leaf implements Observer.
func (f FuncObserver) Leaf(total float64) {
	if f.OnLeaf != nil {
		f.OnLeaf(total)
	}
}

// MultiObserver fans every callback out to each observer in order, so a
// run can be traced and logged at the same time.
type MultiObserver []Observer

// LayerStart implements Observer.
func (m MultiObserver) LayerStart(spec LayerSpec, parents int) {
	for _, o := range m {
		o.LayerStart(spec, parents)
	}
}

// SearchStart implements Observer.
func (m MultiObserver) SearchStart(layer int, start graph.NodeID, forward bool) {
	for _, o := range m {
		o.SearchStart(layer, start, forward)
	}
}

// SearchDone implements Observer.
func (m MultiObserver) SearchDone(layer int, start graph.NodeID, forward bool, treeSize int, covered bool) {
	for _, o := range m {
		o.SearchDone(layer, start, forward, treeSize, covered)
	}
}

// ExtensionsBuilt implements Observer.
func (m MultiObserver) ExtensionsBuilt(layer int, start graph.NodeID, generated, kept int) {
	for _, o := range m {
		o.ExtensionsBuilt(layer, start, generated, kept)
	}
}

// CandidatesFiltered implements Observer.
func (m MultiObserver) CandidatesFiltered(layer int, considered, capacityRejected, delayRejected int) {
	for _, o := range m {
		o.CandidatesFiltered(layer, considered, capacityRejected, delayRejected)
	}
}

// LayeredRun implements Observer.
func (m MultiObserver) LayeredRun(run LayeredRun) {
	for _, o := range m {
		o.LayeredRun(run)
	}
}

// LayerDone implements Observer.
func (m MultiObserver) LayerDone(spec LayerSpec, kept int, cheapest float64) {
	for _, o := range m {
		o.LayerDone(spec, kept, cheapest)
	}
}

// Leaf implements Observer.
func (m MultiObserver) Leaf(total float64) {
	for _, o := range m {
		o.Leaf(total)
	}
}

// notify helpers keep call sites terse when no observer is configured.
func (e *embedder) observeLayerStart(spec LayerSpec, parents int) {
	if e.opts.Observer != nil {
		e.opts.Observer.LayerStart(spec, parents)
	}
}

func (e *embedder) observeSearchStart(layer int, start graph.NodeID, forward bool) {
	if e.opts.Observer != nil {
		e.opts.Observer.SearchStart(layer, start, forward)
	}
}

func (e *embedder) observeSearch(layer int, start graph.NodeID, forward bool, size int, covered bool) {
	if e.opts.Observer != nil {
		e.opts.Observer.SearchDone(layer, start, forward, size, covered)
	}
}

func (e *embedder) observeExtensions(layer int, start graph.NodeID, generated, kept int) {
	if e.opts.Observer != nil {
		e.opts.Observer.ExtensionsBuilt(layer, start, generated, kept)
	}
}

func (e *embedder) observeFiltered(layer int, considered, capacityRejected, delayRejected int) {
	if e.opts.Observer != nil {
		e.opts.Observer.CandidatesFiltered(layer, considered, capacityRejected, delayRejected)
	}
}

func (e *embedder) observeLayerDone(spec LayerSpec, kept int, cheapest float64) {
	if e.opts.Observer != nil {
		e.opts.Observer.LayerDone(spec, kept, cheapest)
	}
}

func (e *embedder) observeLeaf(total float64) {
	if e.opts.Observer != nil {
		e.opts.Observer.Leaf(total)
	}
}
