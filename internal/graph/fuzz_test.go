package graph

import "testing"

// FuzzBucketQueue drives the calendar bucket queue and the 4-ary heap
// through the same Dijkstra-shaped workload — monotone pops, pushes only
// on strict distance improvement, every queued distance within maxPrice of
// the current minimum — and checks both against a naive linear-scan
// reference. Any divergence in pop order (the strict (dist, node)
// contract) or in emptiness is a bug that would silently fork search
// results between the two structures.
func FuzzBucketQueue(f *testing.F) {
	f.Add([]byte{0x00}, uint8(4), uint8(10))
	f.Add([]byte{0x10, 0x80, 0xff, 0x03, 0x41, 0x41, 0x41}, uint8(16), uint8(1))
	f.Add([]byte{7, 7, 7, 7, 0, 0, 255, 255, 128, 64, 32, 16}, uint8(200), uint8(100))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, uint8(1), uint8(255))

	f.Fuzz(func(t *testing.T, ops []byte, unitsRaw, maxPRaw uint8) {
		const nodes = 64
		units := int(unitsRaw)%128 + 1
		maxPrice := float64(maxPRaw)/16 + 0.0625 // (0, ~16], never zero
		delta := maxPrice / float64(units)

		view := &CostView{
			maxPrice: maxPrice,
			delta:    delta,
			invDelta: 1 / delta,
			nb:       units + 2,
		}

		dist := make([]float64, nodes)
		for i := range dist {
			dist[i] = Inf
		}

		var bq bucketQueue
		bq.reset(view, 0)
		var h4 heap4
		var ref []distItem // unordered; popped by linear before() scan

		push := func(it distItem) {
			bq.push(it)
			h4.push(it)
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
		h4Pop := func() (distItem, bool) {
			for len(h4) > 0 {
				it := h4.pop()
				if it.dist > dist[it.node] {
					continue // stale
				}
				return it, true
			}
			return distItem{}, false
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
			// Pop from all three structures; they must agree exactly.
			want, wantOK := refPop()
			got, gotOK := bq.pop(dist)
			hGot, hOK := h4Pop()
			if gotOK != wantOK || hOK != wantOK {
				t.Fatalf("emptiness diverged: bucket=%v heap=%v ref=%v", gotOK, hOK, wantOK)
			}
			if !wantOK {
				continue
			}
			if got != want {
				t.Fatalf("bucket pop %+v, ref pop %+v", got, want)
			}
			if hGot != want {
				t.Fatalf("heap pop %+v, ref pop %+v", hGot, want)
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

		// Drain: the three structures must agree to the very end.
		for {
			want, wantOK := refPop()
			got, gotOK := bq.pop(dist)
			hGot, hOK := h4Pop()
			if gotOK != wantOK || hOK != wantOK {
				t.Fatalf("drain emptiness diverged: bucket=%v heap=%v ref=%v", gotOK, hOK, wantOK)
			}
			if !wantOK {
				break
			}
			if got != want || hGot != want {
				t.Fatalf("drain pop: bucket %+v heap %+v ref %+v", got, hGot, want)
			}
		}
		if bq.live != 0 {
			t.Fatalf("drained bucket queue reports %d live entries", bq.live)
		}
		for i, b := range bq.buckets {
			if len(b) != 0 {
				t.Fatalf("drained bucket %d holds %d entries", i, len(b))
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
