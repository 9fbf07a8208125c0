package graph

import "unsafe"

// GrowTree is a min-cost tree searched only as far as it is read: To
// resumes the search until the node asked for is final and suspends it
// there, frontier and all. Nodes settle in the kernel's strict (dist, node)
// order whatever the stopping point, so every final entry — distance,
// parent edge, and the whole parent chain behind it — is the entry the
// complete tree holds, and a path read from a partly grown tree is
// bit-identical to the one DijkstraWith would give.
//
// A GrowTree owns its storage (one block, see alloc) and keeps it across
// Reset, which undoes only what the last search touched. It is not safe
// for concurrent use and must not outlive a recompilation of its view.
type GrowTree struct {
	ShortestTree
	view *CostView
	// frontier is the suspended search: every tentative node has a live
	// entry here. touched lists the nodes that left their resting state.
	frontier heap4
	touched  []NodeID
	// bound is the distance of the last node settled: an entry at or below
	// it is final, because later pops are no nearer and prices are never
	// negative, so no later relaxation improves on it strictly. -1 before
	// the first pop, +Inf once the frontier has drained.
	bound float64
}

// alloc gives the tree one pointer-free block for all five of its arrays —
// a new tree costs the run one allocation, not six — at rest (Dist=Inf,
// parent/prev=None). The frontier gets room for n entries and moves out of
// the block by itself (append) in the rare search that queues more.
func (t *GrowTree) alloc(n int) {
	block := make([]float64, 6*n)
	t.Dist = block[:n:n]
	t.parent = unsafe.Slice((*EdgeID)(unsafe.Pointer(&block[n])), n)
	t.prev = unsafe.Slice((*NodeID)(unsafe.Pointer(&block[2*n])), n)
	t.touched = unsafe.Slice((*NodeID)(unsafe.Pointer(&block[3*n])), n)[:0]
	t.frontier = unsafe.Slice((*distItem)(unsafe.Pointer(&block[4*n])), n)[:0]
	for i := range t.Dist {
		t.Dist[i], t.parent[i], t.prev[i] = Inf, None, None
	}
}

// MemBytes reports the memory the tree pins, at 8 bytes per array element
// and 16 per frontier entry.
func (t *GrowTree) MemBytes() int {
	return t.ShortestTree.MemBytes() + 8*cap(t.touched) + 16*cap(t.frontier)
}

// rest brings the arrays back to their resting state for a graph of n
// nodes, undoing only the entries the previous search touched.
func (t *GrowTree) rest(n int) {
	if cap(t.Dist) < n {
		t.alloc(n)
		return
	}
	// The previous search may have been on a larger graph, so undo its
	// writes against the full backing arrays before re-slicing to n.
	dist, parent, prev := t.Dist[:cap(t.Dist)], t.parent[:cap(t.parent)], t.prev[:cap(t.prev)]
	for _, v := range t.touched {
		dist[v], parent[v], prev[v] = Inf, None, None
	}
	t.Dist, t.parent, t.prev = dist[:n], parent[:n], prev[:n]
	t.touched, t.frontier = t.touched[:0], t.frontier[:0]
}

// Reset discards whatever the tree held and roots it at src on view, with
// nothing searched yet. An out-of-range or banned src roots an empty tree.
func (t *GrowTree) Reset(view *CostView, src NodeID) {
	t.rest(view.numNodes)
	t.view, t.Src, t.bound = view, src, -1
	if src < 0 || int(src) >= view.numNodes || view.NodeBanned(src) {
		t.bound = Inf
		return
	}
	t.Dist[src] = 0
	t.touched = append(t.touched, src)
	t.frontier.push(distItem{node: src, dist: 0})
}

// To grows the tree until v's distance and path are final — until every
// node's are when v is None or unreachable — and returns it with the number
// of nodes this call settled. Entries of nodes that are not yet final hold
// tentative values: read only what was asked for. A tree asked for
// everything before anything else borrows s's bucket queue for the one
// uninterrupted search; every other search runs on the tree's own heap.
//
// The inner loop reads only the view's dense arrays: an inadmissible arc
// carries price +Inf, so d + price can never improve a distance and no
// admissibility branch is needed. Pop order is the strict (dist, node)
// order shared by both queue structures, so results do not depend on which
// one served the search.
func (t *GrowTree) To(s *Scratch, v NodeID) (*ShortestTree, int) {
	view, dist, settled := t.view, t.Dist, 0
	arcs, off, price := view.arcs, view.off, view.price
	var bq *bucketQueue
	if v == None && t.bound < 0 && view.delta > 0 {
		bq = &s.q.bq
		bq.reset(view)
		bq.push(t.frontier.pop())
	}
	for v == None || dist[v] > t.bound {
		var item distItem
		if bq != nil {
			var ok bool
			if item, ok = bq.pop(dist); !ok {
				break
			}
		} else {
			if len(t.frontier) == 0 {
				break
			}
			if item = t.frontier.pop(); item.dist > dist[item.node] {
				continue // superseded by a later, cheaper push
			}
		}
		u, d := item.node, item.dist
		settled++
		t.bound = d
		for ai := int(off[u]); ai < int(off[u+1]); ai++ {
			nd := d + price[ai]
			to := arcs[ai].To
			if nd < dist[to] {
				if dist[to] == Inf {
					t.touched = append(t.touched, to)
				}
				dist[to] = nd
				t.parent[to] = arcs[ai].Edge
				t.prev[to] = u
				if bq != nil {
					bq.push(distItem{node: to, dist: nd})
				} else {
					t.frontier.push(distItem{node: to, dist: nd})
				}
			}
		}
	}
	if bq != nil || len(t.frontier) == 0 {
		t.bound = Inf
	}
	return &t.ShortestTree, settled
}
