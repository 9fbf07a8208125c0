package network

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"dagsfc/internal/graph"
)

// Ledger tracks how much bandwidth of every link and how much processing
// capacity of every VNF instance is already committed. It is the
// "real-time network graph G_1" that Algorithm 1 consults: embedding
// algorithms reserve capacity as they commit sub-solutions, and online
// multi-flow scenarios carry one ledger across many requests.
//
// A Ledger is either a root (dense usage arrays, created by NewLedger) or
// an overlay (created by Overlay): a sparse copy-on-write delta over a base
// ledger. Overlays make speculative embeds O(changes) instead of O(network)
// — the serving layer hands each worker an overlay snapshot rather than a
// full copy — and can be folded back with Commit or dropped with Discard.
// While an overlay is live its base must not be mutated; the overlay reads
// through to it on every query.
//
// The zero Ledger is not usable; create one with NewLedger.
type Ledger struct {
	net *Network
	// base is nil for root ledgers; overlays read through to it.
	base *Ledger
	// edgeUsed holds absolute committed bandwidth per edge (root only).
	edgeUsed []float64
	// edgeDelta holds the overlay's sparse bandwidth deltas (overlay only).
	edgeDelta map[graph.EdgeID]float64
	// instUsed holds absolute committed capacity per instance, in the
	// network's row layout (root only); a slot without an instance stays
	// zero. The first reservation allocates it: until then the ledger is
	// empty and nil reads as all zeros, so the fresh ledger a ledgerless
	// embed runs on costs no rows.
	instUsed []float64
	// instDelta holds the overlay's sparse capacity deltas (overlay only).
	// Roots are dense because every search reads them whole (see
	// InstanceResiduals); overlays stay sparse because a snapshot is taken
	// per request and must cost O(changes).
	instDelta map[instKey]float64
	// quar is the active fault quarantine (root only; overlays read through
	// to their root's table). See fault.go for the publication protocol.
	quar quarPointer

	// View-epoch machinery (see ViewEpoch). ep holds the counters shared by
	// every ledger of one family — a root plus everything derived from it
	// via Overlay/Snapshot/Flatten. gen counts this ledger's own
	// visible mutations; it feeds the pin signatures of descendants that
	// read through this ledger. view/sig are the ledger's current pin,
	// guarded by pinMu (mutations re-pin inline, readers validate).
	ep    *epochCell
	gen   atomic.Uint64
	pinMu sync.Mutex
	view  uint64
	sig   uint64
}

// epochCell is the per-family counter block. state is the monotonic epoch
// source: every pin that needs a fresh epoch draws a unique value from it.
// fault counts quarantine mutations; because faults publish through the
// root's atomic pointer, they change the residual view of every ledger in
// the family at once, so the fault counter is part of every pin signature.
type epochCell struct {
	state atomic.Uint64
	fault atomic.Uint64
}

// chainSig computes the ledger's current pin signature: the family fault
// generation plus the mutation counters of every ledger this one reads
// through (itself included). Each term is monotonic, so the sum is too —
// an unchanged signature proves no relevant mutation happened, with no
// ABA window.
func (l *Ledger) chainSig() uint64 {
	s := l.ep.fault.Load()
	for cur := l; cur != nil; cur = cur.base {
		s += cur.gen.Load()
	}
	return s
}

// bumpEpoch re-pins the ledger after one of its own visible mutations. It
// must run inside the same critical section as the mutation (the ledger
// mutation contract already requires caller serialization): any reader
// that can observe the new state through a later Snapshot also observes
// the new epoch.
func (l *Ledger) bumpEpoch() {
	l.gen.Add(1)
	v := l.ep.state.Add(1)
	l.pinMu.Lock()
	l.view = v
	l.sig = l.chainSig()
	l.pinMu.Unlock()
}

// pinned returns the ledger's current (view, sig) pair, refreshing a
// stale pin first. Constructors derive a child's pin arithmetically from
// this snapshot instead of re-reading the counters, so a concurrent fault
// cannot slip between "inherit parent's epoch" and "record the signature
// it was valid under".
func (l *Ledger) pinned() (view, sig uint64) {
	l.pinMu.Lock()
	defer l.pinMu.Unlock()
	if l.sig != l.chainSig() {
		l.view = l.ep.state.Add(1)
		l.sig = l.chainSig()
	}
	return l.view, l.sig
}

// ViewEpoch returns an identifier of the ledger's current residual view:
// within one ledger family, two ledgers reporting the same epoch present
// bit-identical residuals. The epoch is pinned when the ledger is created
// (inherited from its parent, whose view it shares) and refreshed to a
// fresh monotonic value whenever the pin goes stale — the ledger mutated,
// an ancestor it reads through mutated, or a fault changed the family's
// quarantine. It moves on every commit, which is why nothing is keyed on
// it any more (shared cost views compare their content instead); it
// remains as the measure of how often the view changes.
func (l *Ledger) ViewEpoch() uint64 {
	v, _ := l.pinned()
	return v
}

// NewLedger returns an empty root ledger over net.
func NewLedger(net *Network) *Ledger {
	l := &Ledger{
		net:      net,
		edgeUsed: make([]float64, net.G.NumEdges()),
		ep:       &epochCell{},
	}
	l.view = l.ep.state.Add(1)
	l.sig = l.chainSig()
	return l
}

// Network returns the network the ledger accounts for.
func (l *Ledger) Network() *Network { return l.net }

// IsOverlay reports whether l is a copy-on-write overlay.
func (l *Ledger) IsOverlay() bool { return l.base != nil }

// OverlayLen reports how many distinct edges and instances the overlay has
// touched (0 for a root ledger) — the cost driver of Snapshot and Commit,
// which the server uses to decide when to rebase.
func (l *Ledger) OverlayLen() int { return len(l.edgeDelta) + len(l.instDelta) }

// Overlay returns a new empty copy-on-write overlay whose reads fall
// through to l. The base must not be mutated while the overlay is in use.
func (l *Ledger) Overlay() *Ledger {
	view, sig := l.pinned()
	return &Ledger{
		net:       l.net,
		base:      l,
		edgeDelta: make(map[graph.EdgeID]float64),
		instDelta: make(map[instKey]float64),
		ep:        l.ep,
		// An empty overlay presents its parent's exact view, and its pin
		// chain is the parent's chain plus its own (zero) counter.
		view: view,
		sig:  sig,
	}
}

// EdgeResidual reports the remaining bandwidth of edge e, net of any
// capacity active faults have quarantined. It can be negative while a
// fault holds capacity that committed flows are still using. A hard
// failure — an edge-down fault on e, or a node-down fault on either
// endpoint — pins the residual to exactly zero regardless of usage.
func (l *Ledger) EdgeResidual(e graph.EdgeID) float64 {
	r := l.net.G.Edge(e).Capacity - l.EdgeUsed(e)
	if q := l.quarantineTable(); q != nil {
		r -= q.edge[e]
		ed := l.net.G.Edge(e)
		if q.edgePinned(e, ed.A, ed.B) {
			return 0
		}
	}
	return r
}

// EdgeUsed reports the committed bandwidth of edge e.
func (l *Ledger) EdgeUsed(e graph.EdgeID) float64 {
	if l.base != nil {
		return l.base.EdgeUsed(e) + l.edgeDelta[e]
	}
	return l.edgeUsed[e]
}

// InstanceResidual reports the remaining processing capacity of the
// instance of vnf on node, net of any capacity active faults have
// quarantined. Missing instances have zero residual; the dummy VNF is
// infinite (node faults black-hole its links instead).
func (l *Ledger) InstanceResidual(node graph.NodeID, vnf VNFID) float64 {
	i, ok := l.net.deployed(node, vnf)
	if !ok {
		return 0
	}
	r := l.net.capacity[i] - l.InstanceUsed(node, vnf)
	if q := l.quarantineTable(); q != nil {
		r -= q.inst[instKey{node, vnf}]
		if q.node[node] > 0 {
			// Hosting node is hard-down: pin to exactly zero.
			return 0
		}
	}
	return r
}

// InstanceUsed reports the committed capacity of the instance of vnf on
// node.
func (l *Ledger) InstanceUsed(node graph.NodeID, vnf VNFID) float64 {
	if l.base != nil {
		return l.base.InstanceUsed(node, vnf) + l.instDelta[instKey{node, vnf}]
	}
	if i, ok := l.net.deployed(node, vnf); ok && i < len(l.instUsed) {
		return l.instUsed[i]
	}
	return 0
}

// ReserveEdge commits amount bandwidth on edge e, failing without side
// effects if the residual is insufficient.
func (l *Ledger) ReserveEdge(e graph.EdgeID, amount float64) error {
	if amount < 0 {
		return fmt.Errorf("network: negative reservation %v on edge %d", amount, e)
	}
	if l.EdgeResidual(e) < amount-CapacityEps {
		return fmt.Errorf("network: edge %d over capacity: residual %v < demand %v",
			e, l.EdgeResidual(e), amount)
	}
	if l.base != nil {
		l.setEdgeDelta(e, l.edgeDelta[e]+amount)
		l.bumpEpoch()
		return nil
	}
	l.edgeUsed[e] += amount
	l.bumpEpoch()
	return nil
}

// ReleaseEdge returns amount bandwidth to edge e. Total usage never drops
// below zero, on either a root or the combined view of an overlay.
func (l *Ledger) ReleaseEdge(e graph.EdgeID, amount float64) {
	if l.base != nil {
		d := l.edgeDelta[e] - amount
		if l.base.EdgeUsed(e)+d < 0 {
			d = -l.base.EdgeUsed(e)
		}
		l.setEdgeDelta(e, d)
		l.bumpEpoch()
		return
	}
	l.edgeUsed[e] -= amount
	if l.edgeUsed[e] < 0 {
		l.edgeUsed[e] = 0
	}
	l.bumpEpoch()
}

func (l *Ledger) setEdgeDelta(e graph.EdgeID, d float64) {
	if d == 0 {
		delete(l.edgeDelta, e)
		return
	}
	l.edgeDelta[e] = d
}

// ReserveInstance commits amount processing capacity on the instance of
// vnf at node, failing without side effects if insufficient. Reserving the
// dummy VNF is a no-op.
func (l *Ledger) ReserveInstance(node graph.NodeID, vnf VNFID, amount float64) error {
	if vnf == Dummy {
		return nil
	}
	if amount < 0 {
		return fmt.Errorf("network: negative reservation %v on instance (%d,%d)", amount, node, vnf)
	}
	if l.InstanceResidual(node, vnf) < amount-CapacityEps {
		return fmt.Errorf("network: instance f(%d) on node %d over capacity: residual %v < demand %v",
			vnf, node, l.InstanceResidual(node, vnf), amount)
	}
	l.instOrDeltaAdd(instKey{node, vnf}, amount)
	l.bumpEpoch()
	return nil
}

// ReleaseInstance returns amount capacity to the instance of vnf at node.
// Total usage never drops below zero, matching ReleaseEdge.
func (l *Ledger) ReleaseInstance(node graph.NodeID, vnf VNFID, amount float64) {
	if vnf == Dummy {
		return
	}
	if l.base != nil {
		key := instKey{node, vnf}
		d := l.instDelta[key] - amount
		if l.base.InstanceUsed(node, vnf)+d <= 0 {
			d = -l.base.InstanceUsed(node, vnf)
		}
		l.setInstDelta(key, d)
		l.bumpEpoch()
		return
	}
	if i, ok := l.net.deployed(node, vnf); ok && i < len(l.instUsed) {
		l.instUsed[i] = max(l.instUsed[i]-amount, 0)
	}
	l.bumpEpoch()
}

func (l *Ledger) setInstDelta(key instKey, d float64) {
	if d == 0 {
		delete(l.instDelta, key)
		return
	}
	l.instDelta[key] = d
}

// Commit folds an overlay's deltas into its base ledger. Every positive
// delta is re-validated against the base first — the base may have moved
// since the overlay was taken (a stale-snapshot commit in the server) —
// and on any violation the commit fails without touching the base. After a
// successful commit the overlay is empty and remains usable.
func (l *Ledger) Commit() error {
	if l.base == nil {
		return fmt.Errorf("network: Commit on a root ledger (not an overlay)")
	}
	for e, d := range l.edgeDelta {
		if d > 0 && l.base.EdgeResidual(e) < d-CapacityEps {
			return fmt.Errorf("network: commit conflict: edge %d residual %v < delta %v",
				e, l.base.EdgeResidual(e), d)
		}
	}
	for k, d := range l.instDelta {
		if d > 0 && l.base.InstanceResidual(k.node, k.vnf) < d-CapacityEps {
			return fmt.Errorf("network: commit conflict: instance f(%d) on node %d residual %v < delta %v",
				k.vnf, k.node, l.base.InstanceResidual(k.node, k.vnf), d)
		}
	}
	for e, d := range l.edgeDelta {
		if d >= 0 {
			// Validated reservation: cannot overflow the base.
			l.base.edgeOrDeltaAdd(e, d)
		} else {
			l.base.ReleaseEdge(e, -d)
		}
	}
	for k, d := range l.instDelta {
		if d >= 0 {
			l.base.instOrDeltaAdd(k, d)
		} else {
			l.base.ReleaseInstance(k.node, k.vnf, -d)
		}
	}
	clear(l.edgeDelta)
	clear(l.instDelta)
	// The base's view changed (one bump covers the whole fold; the
	// Release* calls above already bumped for their share). The overlay's
	// combined view is unchanged — its deltas folded into the base it
	// reads through — so it re-pins at the base's fresh epoch rather than
	// going stale: after a commit, overlay and base present the same view
	// under the same epoch.
	l.base.bumpEpoch()
	view, sig := l.base.pinned()
	l.pinMu.Lock()
	l.view = view
	l.sig = sig + l.gen.Load()
	l.pinMu.Unlock()
	return nil
}

// edgeOrDeltaAdd adds a validated positive amount to the base's usage,
// whether the base is itself a root or an overlay (stacked overlays fold
// one level at a time).
func (l *Ledger) edgeOrDeltaAdd(e graph.EdgeID, d float64) {
	if l.base != nil {
		l.setEdgeDelta(e, l.edgeDelta[e]+d)
		return
	}
	l.edgeUsed[e] += d
}

func (l *Ledger) instOrDeltaAdd(k instKey, d float64) {
	if l.base != nil {
		l.setInstDelta(k, l.instDelta[k]+d)
		return
	}
	// A slot without an instance stays zero, whatever is asked of it.
	if i, ok := l.net.deployed(k.node, k.vnf); ok {
		if l.instUsed == nil {
			l.instUsed = make([]float64, len(l.net.capacity))
		}
		l.instUsed[i] = max(l.instUsed[i]+d, 0)
	}
}

// Discard drops every uncommitted delta; the overlay is empty afterwards
// and remains usable. On a root ledger it is a no-op.
func (l *Ledger) Discard() {
	if l.base == nil {
		return
	}
	clear(l.edgeDelta)
	clear(l.instDelta)
	l.bumpEpoch()
}

// Snapshot returns an independent what-if copy of the ledger's current
// view. For an overlay this is O(overlay deltas): the copy shares the
// (frozen) base and clones only the sparse delta maps — the cheap
// replacement for the dense per-speculative-embed copy the server used to
// pay. For a root ledger it is a full Flatten.
func (l *Ledger) Snapshot() *Ledger {
	if l.base == nil {
		return l.Flatten()
	}
	view, sig := l.pinned()
	return &Ledger{
		net:       l.net,
		base:      l.base,
		edgeDelta: maps.Clone(l.edgeDelta),
		instDelta: maps.Clone(l.instDelta),
		ep:        l.ep,
		// The snapshot presents l's exact view but reads through l.base,
		// not l: its pin chain drops l's own counter, so later mutations
		// of l (which the snapshot cannot see) do not invalidate it.
		view: view,
		sig:  sig - l.gen.Load(),
	}
}

// SnapshotInto is Snapshot into storage the caller already owns: dst, an
// overlay some earlier Snapshot or SnapshotInto returned and that nothing
// reads any more, is overwritten to present l's current view — same base,
// same deltas, same pin as a fresh Snapshot would take — and returned. Its
// delta maps are cleared and refilled, so a caller that snapshots once per
// request keeps two warm maps instead of cloning two per request. A nil or
// root dst, or a root l, falls back to Snapshot.
func (l *Ledger) SnapshotInto(dst *Ledger) *Ledger {
	if l.base == nil || dst == nil || dst.base == nil {
		return l.Snapshot()
	}
	view, sig := l.pinned()
	dst.net, dst.base, dst.ep = l.net, l.base, l.ep
	clear(dst.edgeDelta)
	maps.Copy(dst.edgeDelta, l.edgeDelta)
	clear(dst.instDelta)
	maps.Copy(dst.instDelta, l.instDelta)
	// Snapshot's pin, plus the recycled ledger's own mutation counter: it
	// is part of dst's chain and, unlike a fresh copy's, not zero.
	dst.pinMu.Lock()
	dst.view = view
	dst.sig = sig - l.gen.Load() + dst.gen.Load()
	dst.pinMu.Unlock()
	return dst
}

// Flatten folds the ledger's entire view (base chain plus deltas) into a
// fresh independent root ledger. The server rebases onto a Flatten when an
// overlay's delta map has grown past the point where snapshots stay cheap.
func (l *Ledger) Flatten() *Ledger {
	c := &Ledger{
		net:      l.net,
		edgeUsed: make([]float64, l.net.G.NumEdges()),
		instUsed: make([]float64, len(l.net.capacity)),
		ep:       l.ep,
	}
	for e := range c.edgeUsed {
		c.edgeUsed[e] = l.EdgeUsed(graph.EdgeID(e))
	}
	l.fillInstUsed(c.instUsed)
	for i, u := range c.instUsed {
		c.instUsed[i] = max(u, 0)
	}
	// The flattened root inherits the active quarantine (the table is
	// immutable, so sharing the pointer is safe); the server's rebase must
	// not lose in-flight faults.
	c.quar.Store(l.quarantineTable())
	// Pin at a fresh epoch: the flattened root presents the same residuals
	// as l, but a fresh unique epoch is always sound and keeps the rebase
	// from aliasing an epoch whose source chain it no longer shares.
	c.view = c.ep.state.Add(1)
	c.sig = c.chainSig()
	return c
}

// EdgeResiduals fills dst with the residual bandwidth of every edge —
// dst[e] bitwise equal to EdgeResidual(e) — growing dst only if it lacks
// capacity, and returns it. One call replaces NumEdges individual queries
// (each of which walks the overlay chain and hashes into the delta maps),
// which is what makes cost-view compilation a dense O(edges) pass. The
// float operations replay EdgeResidual's exact order: committed usage is
// accumulated base-first along the overlay chain, then subtracted from
// capacity, then the quarantine is subtracted — so capacity-floor
// comparisons against the result can never disagree with the scalar path.
func (l *Ledger) EdgeResiduals(dst []float64) []float64 {
	ne := l.net.G.NumEdges()
	if cap(dst) < ne {
		dst = make([]float64, ne)
	} else {
		dst = dst[:ne]
	}
	l.fillEdgeUsed(dst)
	edges := l.net.G.Edges()
	for e := range dst {
		dst[e] = edges[e].Capacity - dst[e]
	}
	if q := l.quarantineTable(); q != nil {
		for e, amt := range q.edge {
			if int(e) < ne {
				dst[e] -= amt
			}
		}
		// Hard-failure pins last, mirroring the scalar path's early return:
		// both paths store the literal constant 0, so the bitwise contract
		// holds through down faults too.
		for e := range q.down {
			if int(e) < ne {
				dst[e] = 0
			}
		}
		for v := range q.node {
			for _, arc := range l.net.G.Neighbors(v) {
				if int(arc.Edge) < ne {
					dst[arc.Edge] = 0
				}
			}
		}
	}
	return dst
}

// fillEdgeUsed writes EdgeUsed of every edge into dst, applying overlay
// deltas base-first so each slot sees the same addition order as the
// recursive scalar EdgeUsed.
func (l *Ledger) fillEdgeUsed(dst []float64) {
	if l.base != nil {
		l.base.fillEdgeUsed(dst)
		for e, d := range l.edgeDelta {
			if int(e) < len(dst) {
				dst[e] += d
			}
		}
		return
	}
	copy(dst, l.edgeUsed)
	// A root sized before later AddEdge calls may track fewer edges than
	// the graph; the extra slots carry zero usage.
	for i := len(l.edgeUsed); i < len(dst); i++ {
		dst[i] = 0
	}
}

// InstanceResiduals is EdgeResiduals for instances: it fills dst with the
// residual capacity of every (category, node) pair in the network's row
// layout — dst[f*nodes+v] bitwise equal to InstanceResidual(v, f), so zero
// where nothing is deployed and +Inf along the dummy's row — growing dst
// only if it lacks capacity, and returns it. One call replaces a hashed
// lookup (and an overlay-chain walk) per query, which is what lets a search
// read availability as a plain index. The float operations replay
// InstanceResidual's order: usage accumulated base-first, subtracted from
// capacity, quarantine subtracted, node-down pins last.
func (l *Ledger) InstanceResiduals(dst []float64) []float64 {
	capacity, nodes := l.net.capacity, l.net.nodes
	if cap(dst) < len(capacity) {
		dst = make([]float64, len(capacity))
	} else {
		dst = dst[:len(capacity)]
	}
	l.fillInstUsed(dst)
	for i, c := range capacity {
		dst[i] = c - dst[i]
	}
	if q := l.quarantineTable(); q != nil {
		for k, amt := range q.inst {
			if i, ok := l.net.deployed(k.node, k.vnf); ok {
				dst[i] -= amt
			}
		}
		for v := range q.node {
			if v >= 0 && int(v) < nodes {
				for i := int(v); i < len(dst); i += nodes {
					dst[i] = 0
				}
			}
		}
	}
	return dst
}

// fillInstUsed writes InstanceUsed of every slot into dst (len(capacity)
// long), overlay deltas applied base-first like fillEdgeUsed.
func (l *Ledger) fillInstUsed(dst []float64) {
	if l.base != nil {
		l.base.fillInstUsed(dst)
		for k, d := range l.instDelta {
			if i, ok := l.net.deployed(k.node, k.vnf); ok {
				dst[i] += d
			}
		}
		return
	}
	clear(dst[copy(dst, l.instUsed):])
}

// CostOptions returns graph search options that admit only links with at
// least demand residual bandwidth according to this ledger. Both the
// scalar and bulk residual hooks are set, so compiled cost views can
// export every residual in one call.
func (l *Ledger) CostOptions(demand float64) *graph.CostOptions {
	return &graph.CostOptions{MinCapacity: demand, Residual: l.EdgeResidual, Residuals: l.EdgeResiduals}
}

// CapacityEps absorbs float accumulation error in capacity comparisons: a
// demand fits a residual that falls short of it by no more than this.
const CapacityEps = 1e-9
