package graph

import "math"

// This file holds the layered shortest-path kernel: one Dijkstra over k+1
// stacked copies of a compiled CostView, the SFC-constrained shortest-path
// construction. The stack is an index transform, not a graph:
//
//   - state = layer·n + node, layers 0..k over the view's n nodes;
//   - inside a layer the link arcs are the view's own CSR arcs and price
//     array (an inadmissible arc carries +Inf and never improves a
//     distance, exactly as in dijkstraView);
//   - one zero-length step arc (layer, v) → (layer+1, v) per state, priced
//     Rent[layer][v]: crossing it means "the layer's VNF runs on v".
//
// A walk from a layer-0 seed to a layer-k state therefore visits one host
// per layer in order, and its length is the link prices plus the rents it
// paid — the cost of embedding a chain of k single-VNF layers along it.

// LayeredSeed is one entry point of a layered search: the walk may start
// on Node in layer 0 having already paid Dist.
type LayeredSeed struct {
	Node NodeID
	Dist float64
}

// LayeredQuery describes one layered search.
type LayeredQuery struct {
	// Rent[j][v] prices the step arc from (j, v) to (j+1, v); +Inf where
	// the step does not exist. len(Rent) is k, the number of layers the
	// walk must cross; every row has one entry per node of the view.
	Rent [][]float64
	// Admit, when non-nil, is asked before a finitely priced step arc is
	// relaxed and vetoes it by returning false — a test too costly to fold
	// into Rent up front (a residual-capacity lookup per host), paid only
	// for the hosts the search actually reaches.
	Admit func(layer int, v NodeID) bool
	// Seeds are the layer-0 entry points. Several seeds on one node keep
	// the cheapest.
	Seeds []LayeredSeed
	// Target selects the stopping rule. With a node (≥ 0) the search is
	// terminal: layer k is expanded along links like every other layer and
	// the search stops when (Target, k) settles. With None the search
	// stops once MaxExits (at least one) layer-k states have settled, and
	// layer-k states are not expanded — whatever follows starts at the
	// exit node itself, so they are reached through the step arc only.
	Target   NodeID
	MaxExits int
	// PotLink and PotRent, when PotLink is non-nil, direct a terminal search
	// (they are ignored without a Target): state (j, v) is keyed by its
	// distance plus h(v, j) = PotLink[v] + PotRent[j], a lower bound on what
	// is left of the walk. PotLink[v] is the cheapest link price from v to
	// Target — the Dist of the complete tree rooted at Target on this view,
	// links being symmetric — and PotRent[j], one entry per layer 0..k, the
	// least rent layers j..k-1 can still charge (PotRent[k] = 0). Such an h
	// never overestimates and never drops by more than the arc crossed, so
	// the target settles at the same distance after far fewer states.
	PotLink []float64
	PotRent []float64
}

// h is the potential of state (layer, node) of a directed query. On Target
// itself only rents remain, whatever PotLink says (a banned Target roots an
// empty tree yet is still reached by step arcs alone).
func (q *LayeredQuery) h(layer, node int) float64 {
	if NodeID(node) == q.Target {
		return q.PotRent[layer]
	}
	return q.PotLink[node] + q.PotRent[layer]
}

// LayeredSearch is the outcome of one layered search. It aliases scratch
// memory and is valid until the next layered search on the same Scratch.
type LayeredSearch struct {
	n       int
	dist    []float64 // per state, +Inf at rest
	key     []float64 // per queued state of a directed search, dist + h
	pred    []int32   // state settled from, -1 at rest and for seeds
	via     []int32   // CSR arc taken from pred, -1 for a step arc or a seed
	queue   indexHeap // the queued states, keyed by key (dist when undirected)
	touched []int32
	exits   []int
	settled int
}

// Settled reports how many states the search settled before it stopped.
func (r *LayeredSearch) Settled() int { return r.settled }

// Exits lists the settled layer-k states in settling order — ascending
// (distance, state). A terminal search lists its target state alone, or
// nothing when the target is unreachable.
func (r *LayeredSearch) Exits() []int { return r.exits }

// Node splits state x into its layer and node.
func (r *LayeredSearch) Node(x int) (layer int, v NodeID) { return x / r.n, NodeID(x % r.n) }

// Pred walks one step back along the cheapest walk into x: the state x
// was reached from and the CSR arc of the view (see CostView.Arc) that
// was taken. arc is -1 when the step arc was taken instead, pred is -1
// when x is a seed.
func (r *LayeredSearch) Pred(x int) (pred, arc int) { return int(r.pred[x]), int(r.via[x]) }

// Arc returns CSR arc i of the graph the view was compiled from.
func (v *CostView) Arc(i int) Arc { return v.arcs[i] }

// resetLayered brings the scratch's layered arrays to their resting state
// for a search over the given number of states, undoing only what the
// previous search touched — the states it queued and left queued when it
// stopped included.
func (s *Scratch) resetLayered(n, states int) *LayeredSearch {
	s.lastN = states
	r := &s.layered
	if cap(r.dist) < states {
		rows, ids := make([]float64, 2*states), make([]int32, 4*states)
		r.dist, r.key = rows[:states:states], rows[states:]
		r.pred, r.via = ids[:states:states], ids[states:2*states:2*states]
		r.queue = indexHeap{nodes: ids[2*states : 2*states : 3*states], at: ids[3*states:]}
		for i := range r.dist {
			r.dist[i] = Inf
			r.pred[i] = -1
			r.via[i] = -1
		}
	} else {
		// The previous search may have spanned more states, so undo its
		// writes against the full backing arrays before re-slicing.
		full := cap(r.dist)
		dist, pred, via := r.dist[:full], r.pred[:full], r.via[:full]
		for _, x := range r.touched {
			dist[x] = Inf
			pred[x] = -1
			via[x] = -1
		}
		r.queue.clear()
		r.dist, r.pred, r.via = dist[:states], pred[:states], via[:states]
	}
	r.n = n
	r.touched = r.touched[:0]
	r.exits = r.exits[:0]
	r.settled = 0
	return r
}

// LayeredDijkstraWith runs the layered search q over the view on scratch
// memory: zero steady-state allocations once s has grown to the state
// count. States pop in strict (distance + potential, state) order, so the
// result — including which of several equally cheap walks is kept — is a
// function of the query alone. dist[] holds distances; only the heap's key
// row sees the potential. A state is queued at most once and lowered in
// place when its distance falls; there is no closed set, so a strictly
// smaller distance re-queues a state already settled. A state whose
// potential is +Inf cannot reach the target and is never queued.
//
// The queue is the trees' indexed heap, not the bucket queue: the bucket
// queue's no-aliasing bound ("every queued distance is within maxPrice of
// the minimum") does not hold here, since a rent may exceed the largest
// link price and seeds may lie further apart than that.
func (v *CostView) LayeredDijkstraWith(s *Scratch, q *LayeredQuery) *LayeredSearch {
	n, k := v.numNodes, len(q.Rent)
	r := s.resetLayered(n, (k+1)*n)
	s.lastA = v.numArcs
	arcs, off, price, dist, key := v.arcs, v.off, v.price, r.dist, r.dist
	h := &r.queue
	directed := q.PotLink != nil && q.Target >= 0
	if directed {
		key = r.key
	}
	// relax records the strictly better distance nd of state (layer, node),
	// reached from x over CSR arc via (-1: the step arc; a seed has neither).
	relax := func(layer, node int, nd float64, x, via int) {
		to := layer*n + node
		if directed {
			hx := q.h(layer, node)
			if math.IsInf(hx, 1) {
				return
			}
			key[to] = nd + hx
		}
		if math.IsInf(dist[to], 1) {
			r.touched = append(r.touched, int32(to))
		}
		dist[to] = nd
		r.pred[to], r.via[to] = int32(x), int32(via)
		h.queue(key, int32(to))
	}
	for _, seed := range q.Seeds {
		if seed.Node >= 0 && int(seed.Node) < n && seed.Dist < dist[seed.Node] {
			relax(0, int(seed.Node), seed.Dist, -1, -1)
		}
	}
	last := k * n
	for len(h.nodes) > 0 {
		x := int(h.next(key))
		layer := x / n
		node := x - layer*n
		d := dist[x]
		r.settled++
		if x >= last {
			if q.Target == None {
				r.exits = append(r.exits, x)
				if len(r.exits) >= q.MaxExits {
					break
				}
				continue
			}
			if NodeID(node) == q.Target {
				r.exits = append(r.exits, x)
				break
			}
		}
		// A banned node is only ever entered as a seed (every arc into it
		// is inadmissible); like a Dijkstra tree, nothing is searched from it.
		if !v.NodeBanned(NodeID(node)) {
			base := x - node
			for ai := int(off[node]); ai < int(off[node+1]); ai++ {
				if nd, to := d+price[ai], int(arcs[ai].To); nd < dist[base+to] {
					relax(layer, to, nd, x, ai)
				}
			}
		}
		if x >= last {
			continue
		}
		rent := q.Rent[layer][node]
		if math.IsInf(rent, 1) {
			continue
		}
		if nd := d + rent; nd < dist[x+n] && (q.Admit == nil || q.Admit(layer, NodeID(node))) {
			relax(layer+1, node, nd, x, -1)
		}
	}
	return r
}
