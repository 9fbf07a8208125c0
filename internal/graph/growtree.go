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
// Reset, which puts every array back at rest. It is not safe for concurrent
// use and must not outlive a recompilation of its view.
type GrowTree struct {
	ShortestTree
	view *CostView
	// frontier is the suspended search: the tentative nodes, keyed by Dist,
	// each lowered in place when its distance falls.
	frontier indexHeap
	// bound is the distance of the last node settled: an entry at or below
	// it is final, because later pops are no nearer and prices are never
	// negative, so no later relaxation improves on it strictly. -1 before
	// the first pop, +Inf once the frontier has drained.
	bound float64
}

// alloc gives the tree one pointer-free block for all five of its arrays —
// a new tree costs the run one allocation, not five — at rest (Dist=Inf,
// parent/prev=None, nothing queued).
func (t *GrowTree) alloc(n int) { t.carve(make([]float64, 3*n), n) }

// carve lays the tree's arrays, at rest, over block: 3n words nothing else
// uses, 24 bytes a node — a distance, then four int32 rows (parent, prev,
// frontier, at).
func (t *GrowTree) carve(block []float64, n int) {
	t.Dist = block[:n:n]
	ids := unsafe.Slice((*int32)(unsafe.Pointer(&block[n])), 4*n)
	t.parent, t.prev = ids[:n:n], ids[n:2*n:2*n]
	t.frontier.nodes, t.frontier.at = ids[2*n:2*n:3*n], ids[3*n:4*n:4*n]
	t.rest(n)
}

// MemBytes reports the memory the tree pins: 24 bytes a node.
func (t *GrowTree) MemBytes() int {
	return t.ShortestTree.MemBytes() + 4*(cap(t.frontier.nodes)+cap(t.frontier.at))
}

// rest brings the arrays back to their resting state for a graph of n
// nodes, all of them: O(n) once per root.
func (t *GrowTree) rest(n int) {
	if cap(t.Dist) < n {
		t.alloc(n)
		return
	}
	t.frontier.clear()
	t.Dist, t.parent, t.prev, t.frontier.at = t.Dist[:n], t.parent[:n], t.prev[:n], t.frontier.at[:n]
	for i := range n {
		t.Dist[i], t.parent[i], t.prev[i] = Inf, None, None
	}
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
	t.frontier.queue(t.Dist, int32(src))
}

// To grows the tree until v's distance and path are final — until every
// node's are when v is None or unreachable — and returns it with the number
// of nodes this call settled. Entries of nodes that are not yet final hold
// tentative values: read only what was asked for. A search that will not
// stop before the end (v is None) runs on s's bucket queue when the view's
// tuning allows it, the tree's live frontier moved over first; a search
// that may stop runs on the tree's own heap, where it can be suspended.
//
// The inner loop reads only the view's dense arrays: an inadmissible arc
// carries price +Inf, so d + price can never improve a distance and no
// admissibility branch is needed. Pop order is the strict (dist, node)
// order shared by both queue structures, so results do not depend on which
// one served the search, nor on where earlier calls stopped it.
func (t *GrowTree) To(s *Scratch, v NodeID) (*ShortestTree, int) {
	view, dist, settled := t.view, t.Dist, 0
	arcs, off, price := view.arcs, view.off, view.price
	var bq *bucketQueue
	if v == None && view.delta > 0 && len(t.frontier.nodes) > 0 {
		// Every live entry lies in [bound, bound+maxPrice], the window a
		// bucket search holds once it has popped a node at bound: start the
		// cursor there and the queue cannot tell the two apart.
		bq = &s.bq
		bq.reset(view, max(t.bound, 0))
		for _, u := range t.frontier.nodes {
			bq.push(distItem{node: NodeID(u), dist: dist[u]})
		}
		t.frontier.clear()
	}
	for v == None || dist[v] > t.bound {
		var u NodeID
		if bq != nil {
			item, ok := bq.pop(dist)
			if !ok {
				break
			}
			u = item.node
		} else {
			if len(t.frontier.nodes) == 0 {
				break
			}
			u = NodeID(t.frontier.next(dist))
		}
		d := dist[u]
		settled++
		t.bound = d
		for ai := int(off[u]); ai < int(off[u+1]); ai++ {
			nd := d + price[ai]
			to := arcs[ai].To
			if nd < dist[to] {
				dist[to] = nd
				t.parent[to] = int32(arcs[ai].Edge)
				t.prev[to] = int32(u)
				if bq != nil {
					bq.push(distItem{node: to, dist: nd})
				} else {
					t.frontier.queue(dist, int32(to))
				}
			}
		}
	}
	if len(t.frontier.nodes) == 0 {
		t.bound = Inf
	}
	return &t.ShortestTree, settled
}
