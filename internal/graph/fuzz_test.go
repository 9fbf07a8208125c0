package graph

import (
	"slices"
	"testing"
)

// FuzzBucketQueue drives the calendar bucket queue, the indexed heap over a
// key row of its own and a GrowTree's frontier (the same heap over the
// tree's Dist) through the same Dijkstra-shaped workload — monotone pops,
// pushes only on strict distance improvement, a queued node's key lowered
// in place, every queued distance within maxPrice of the current minimum —
// and checks all three against a naive linear-scan reference. Any
// divergence in pop order (the strict (dist, node) contract) or in
// emptiness is a bug that would silently fork search results between the
// structures. The queue's ring is tuned as a compiled view's is, 64 to 1024
// buckets, so the corpus reaches rings with spare buckets (units+2 < 64),
// cursor jumps across bitmap words, wraparound, and the long empty runs a
// narrow price band leaves between distances. testdata/fuzz/FuzzBucketQueue holds a cursor
// jump that wraps round the smallest ring: it fails a queue whose jump
// counts the bits of a whole word on a ring shorter than one.
func FuzzBucketQueue(f *testing.F) {
	f.Add([]byte{0x00}, uint8(4), uint8(10))
	f.Add([]byte{0x10, 0x80, 0xff, 0x03, 0x41, 0x41, 0x41}, uint8(16), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 0, 0, 255, 255, 128, 64, 32, 16}, uint8(200), uint8(100))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(1), uint8(255))
	// A narrow band (every push 0.8–1 maxPrice past the last pop) on rings
	// of 64, 128 and 1024: long empty runs, jumps across words, wraparound.
	band := []byte{2, 250, 1, 0, 4, 210, 1, 0, 6, 255, 1, 0, 8, 230, 1, 0, 10, 220, 1, 0, 12, 240, 1, 0,
		14, 205, 1, 0, 16, 251, 1, 0, 18, 233, 1, 0, 20, 212, 1, 0, 22, 249, 1, 0, 24, 222, 1, 0}
	for _, units := range []uint8{0, 20, 255} {
		f.Add(band, units, uint8(80))
	}

	f.Fuzz(func(t *testing.T, ops []byte, unitsRaw, maxPRaw uint8) {
		const nodes = 64
		maxPrice := float64(maxPRaw)/16 + 0.0625 // (0, ~16], never zero
		view := &CostView{admitted: (1 + 4*int(unitsRaw)) * viewArcsPerBucket, maxPrice: maxPrice}
		view.tuneBuckets()

		// The GrowTree's Dist is the search's distance array: its frontier
		// keys on it.
		var tree GrowTree
		tree.alloc(nodes)
		dist := tree.Dist

		var bq bucketQueue
		bq.reset(view, 0)
		// The heap's key row is the caller's: written before every queue,
		// which lowers a node already queued in place.
		h := indexHeap{nodes: make([]int32, 0, nodes), at: make([]int32, nodes)}
		key := make([]float64, nodes)
		var ref []distItem // unordered; popped by linear before() scan

		push := func(it distItem) {
			bq.push(it)
			key[it.node] = it.dist
			h.queue(key, int32(it.node))
			tree.frontier.queue(dist, int32(it.node))
			ref = append(ref, it)
		}
		refPop := func() (distItem, bool) {
			best := -1
			for i := 0; i < len(ref); {
				if ref[i].dist > dist[ref[i].node] {
					ref[i] = ref[len(ref)-1]
					ref = ref[:len(ref)-1]
					continue
				}
				if best < 0 || ref[i].before(ref[best]) {
					best = i
				}
				i++
			}
			if best < 0 {
				return distItem{}, false
			}
			it := ref[best]
			ref[best] = ref[len(ref)-1]
			ref = ref[:len(ref)-1]
			return it, true
		}
		heapPop := func() (distItem, bool) {
			if len(h.nodes) == 0 {
				return distItem{}, false
			}
			v := h.next(key)
			return distItem{node: NodeID(v), dist: key[v]}, true
		}
		treePop := func() (distItem, bool) {
			if len(tree.frontier.nodes) == 0 {
				return distItem{}, false
			}
			v := tree.frontier.next(dist)
			return distItem{node: NodeID(v), dist: dist[v]}, true
		}
		// popAll pops one entry from every structure; they must agree exactly.
		popAll := func(when string) (distItem, bool) {
			want, wantOK := refPop()
			got, gotOK := bq.pop(dist)
			hGot, hOK := heapPop()
			tGot, tOK := treePop()
			if gotOK != wantOK || hOK != wantOK || tOK != wantOK {
				t.Fatalf("%s emptiness diverged: bucket=%v heap=%v tree=%v ref=%v", when, gotOK, hOK, tOK, wantOK)
			}
			if wantOK && (got != want || hGot != want || tGot != want) {
				t.Fatalf("%s pop: bucket %+v heap %+v tree %+v ref %+v", when, got, hGot, tGot, want)
			}
			return want, wantOK
		}

		// Seed the frontier like the kernel does.
		dist[0] = 0
		push(distItem{node: 0, dist: 0})
		frontier := 0.0 // last popped distance; pushes stay >= frontier

		for k := 0; k+1 < len(ops); k += 2 {
			if ops[k]&1 == 0 {
				// Push a strict improvement within the monotonicity window.
				node := NodeID(ops[k] % nodes)
				nd := frontier + float64(ops[k+1])/255*maxPrice
				if nd >= dist[node] {
					continue
				}
				dist[node] = nd
				push(distItem{node: node, dist: nd})
				continue
			}
			want, ok := popAll("")
			if !ok {
				continue
			}
			if want.dist < frontier {
				t.Fatalf("pop order not monotone: %v after %v", want.dist, frontier)
			}
			frontier = want.dist
			// refPop consumed exactly one fresh entry; the popped node's dist
			// must still be the entry's (pushes only happen on improvement).
			if dist[want.node] != want.dist {
				t.Fatalf("popped entry stale: dist[%d]=%v, entry %v", want.node, dist[want.node], want.dist)
			}
		}

		// Drain: the structures must agree to the very end.
		for {
			if _, ok := popAll("drain"); !ok {
				break
			}
		}
		if bq.live != 0 {
			t.Fatalf("drained bucket queue reports %d live entries", bq.live)
		}
		for i, b := range bq.buckets {
			if len(b) != 0 || bq.occ[i>>6]>>(i&63)&1 != 0 {
				t.Fatalf("drained bucket %d holds %d entries, occupied bit %d", i, len(b), bq.occ[i>>6]>>(i&63)&1)
			}
		}
		for _, at := range [][]int32{h.at, tree.frontier.at} {
			if slices.ContainsFunc(at, func(a int32) bool { return a != 0 }) {
				t.Fatal("a drained heap still places a node")
			}
		}
	})
}

// FuzzGrowTree builds a small priced graph — zero prices, parallel links,
// banned links and nodes included — and a query order from the input, and
// checks a tree grown on demand against the complete tree (checkGrowTree),
// on the bucket queue's view and on the heap's.
func FuzzGrowTree(f *testing.F) {
	f.Add([]byte{9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, uint8(0), false)
	f.Add([]byte{30, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(3), true)
	f.Add([]byte{5, 0xff, 0x10, 0x80, 0x41, 0x41, 0x07, 0x00, 0xc3, 0x99, 0x21}, uint8(200), false)

	f.Fuzz(func(t *testing.T, data []byte, srcRaw uint8, heap bool) {
		if len(data) < 2 {
			return
		}
		n := 2 + int(data[0])%30
		data = data[1:]
		g := New(n)
		opts := &CostOptions{BannedEdges: map[EdgeID]bool{}, BannedNodes: map[NodeID]bool{}}
		var order []NodeID
		for i := 0; i+2 < len(data); i += 3 {
			a, b, w := NodeID(int(data[i])%n), NodeID(int(data[i+1])%n), data[i+2]
			switch {
			case a == b:
				order = append(order, NodeID(int(w)%n))
			case w >= 0xf8:
				opts.BannedNodes[b] = true
			default:
				e := g.MustAddEdge(a, b, float64(w>>3), 1) // prices 0..30, many ties
				if w&7 == 7 {
					opts.BannedEdges[e] = true
				}
			}
		}
		view := g.CompileView(opts)
		if heap {
			view = heapView(view)
		}
		var tree GrowTree
		checkGrowTree(t, "fuzz", &tree, NewScratch(), view, NodeID(int(srcRaw)%n), order)
	})
}

// FuzzAdjacency builds a multigraph of up to 40 nodes from the input, three
// bytes an operation (kind, a, b): mostly AddEdge — parallel links and self
// loops included, isolated nodes left over — interleaved with FindEdge,
// HasEdge and full checks. It holds the CSR, the graph's only adjacency,
// to a naive per-node list kept beside it: Neighbors(v) is v's arcs in
// ascending edge ID, an append to one node's window leaves the next node's
// intact, and FindEdge (the cheapest link, the lowest ID among equals),
// HasEdge and Connected agree with scans of the edge list.
func FuzzAdjacency(f *testing.F) {
	f.Add(uint8(3), []byte{2, 0, 1, 6, 0, 1, 10, 1, 0, 0, 0, 1, 1, 0, 0, 3, 2, 2, 1, 0, 0})
	f.Add(uint8(39), []byte{2, 0, 38, 5, 7, 7, 9, 38, 0, 1, 3, 3, 0, 38, 0, 13, 20, 21, 1, 0, 0})
	f.Add(uint8(0), []byte{1, 0, 0, 0, 0, 0})
	f.Add(uint8(7), []byte{4, 0, 1, 8, 1, 2, 12, 2, 3, 16, 3, 0, 20, 0, 1, 0, 1, 0, 24, 4, 5, 1, 0, 0, 28, 5, 6, 1, 0, 0})

	f.Fuzz(func(t *testing.T, nRaw uint8, ops []byte) {
		n := 1 + int(nRaw)%40
		g := New(n)
		var edges []Edge
		naive := make([][]Arc, n)
		findEdge := func(a, b NodeID) (Edge, bool) {
			best, ok := Edge{}, false
			for _, e := range edges {
				if (e.A == a && e.B == b || e.A == b && e.B == a) && (!ok || e.Price < best.Price) {
					best, ok = e, true
				}
			}
			return best, ok
		}
		connected := func() bool {
			seen, stack := map[NodeID]bool{0: true}, []NodeID{0}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, arc := range naive[v] {
					if !seen[arc.To] {
						seen[arc.To] = true
						stack = append(stack, arc.To)
					}
				}
			}
			return len(seen) == n
		}
		for i := 0; i+2 < len(ops); i += 3 {
			kind, a, b := ops[i], NodeID(int(ops[i+1])%n), NodeID(int(ops[i+2])%n)
			switch kind % 4 {
			case 0:
				want, wantOK := findEdge(a, b)
				if got, ok := g.FindEdge(a, b); got != want || ok != wantOK {
					t.Fatalf("FindEdge(%d, %d) = %+v, %v; want %+v, %v", a, b, got, ok, want, wantOK)
				}
				if g.HasEdge(a, b) != wantOK {
					t.Fatalf("HasEdge(%d, %d) = %v, want %v", a, b, !wantOK, wantOK)
				}
			case 1:
				for v := 0; v < n; v++ {
					if got := g.Neighbors(NodeID(v)); !slices.Equal(got, naive[v]) {
						t.Fatalf("Neighbors(%d) = %v, want %v", v, got, naive[v])
					}
				}
				for v := 0; v+1 < n; v++ {
					next := slices.Clone(g.Neighbors(NodeID(v + 1)))
					_ = append(g.Neighbors(NodeID(v)), Arc{Edge: None, To: None})
					if got := g.Neighbors(NodeID(v + 1)); !slices.Equal(got, next) {
						t.Fatalf("appending to Neighbors(%d) turned Neighbors(%d) into %v, was %v", v, v+1, got, next)
					}
				}
				if got, want := g.Connected(), connected(); got != want {
					t.Fatalf("Connected() = %v, want %v", got, want)
				}
			default:
				price := float64(kind / 4 % 4) // few prices: ties among parallel links
				id, err := g.AddEdge(a, b, price, 1)
				if a == b {
					if err != ErrSelfLoop {
						t.Fatalf("AddEdge(%d, %d) = %v, want ErrSelfLoop", a, b, err)
					}
					continue
				}
				if err != nil || id != EdgeID(len(edges)) {
					t.Fatalf("AddEdge(%d, %d) = %d, %v", a, b, id, err)
				}
				edges = append(edges, Edge{ID: id, A: a, B: b, Price: price, Capacity: 1})
				naive[a] = append(naive[a], Arc{Edge: id, To: b})
				naive[b] = append(naive[b], Arc{Edge: id, To: a})
			}
		}
	})
}
