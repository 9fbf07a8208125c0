package graph

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// layeredOracle materialises the layered graph the kernel only indexes —
// one arc per (layer, admissible CSR arc) and one per admitted, finitely
// priced step — and solves it with Bellman–Ford from the seeds. Both sides
// fold the same float64 prices left to right along a walk and take minima
// over the same candidate sums, so the distances must agree bit for bit.
func layeredOracle(v *CostView, q *LayeredQuery) []float64 {
	n, k := v.NumNodes(), len(q.Rent)
	type arc struct {
		from, to int
		w        float64
	}
	var arcs []arc
	for layer := 0; layer <= k; layer++ {
		if layer == k && q.Target == None {
			break // exit states are not expanded
		}
		for node := 0; node < n; node++ {
			if v.NodeBanned(NodeID(node)) {
				continue
			}
			for ai := int(v.off[node]); ai < int(v.off[node+1]); ai++ {
				if v.Admits(ai) {
					arcs = append(arcs, arc{layer*n + node, layer*n + int(v.arcs[ai].To), v.price[ai]})
				}
			}
		}
	}
	for layer := 0; layer < k; layer++ {
		for node := 0; node < n; node++ {
			rent := q.Rent[layer][node]
			if math.IsInf(rent, 1) || (q.Admit != nil && !q.Admit(layer, NodeID(node))) {
				continue
			}
			arcs = append(arcs, arc{layer*n + node, (layer+1)*n + node, rent})
		}
	}
	dist := make([]float64, (k+1)*n)
	for i := range dist {
		dist[i] = Inf
	}
	for _, s := range q.Seeds {
		if s.Dist < dist[s.Node] {
			dist[s.Node] = s.Dist
		}
	}
	for changed := true; changed; {
		changed = false
		for _, a := range arcs {
			if nd := dist[a.from] + a.w; nd < dist[a.to] {
				dist[a.to] = nd
				changed = true
			}
		}
	}
	return dist
}

// walkLength re-adds the prices along the kernel's predecessor chain into
// x, checking on the way that every step is a real arc of the layered
// graph, and returns the sum with the seed it started from.
func walkLength(t *testing.T, v *CostView, q *LayeredQuery, r *LayeredSearch, x int) (float64, NodeID) {
	t.Helper()
	n := v.NumNodes()
	var weights []float64
	for {
		pred, arc := r.Pred(x)
		if pred < 0 {
			break
		}
		layer, node := r.Node(x)
		pl, pn := r.Node(pred)
		if arc < 0 {
			if pl != layer-1 || pn != node {
				t.Fatalf("step arc from state %d to %d changes node or skips a layer", pred, x)
			}
			weights = append(weights, q.Rent[pl][pn])
		} else {
			a := v.Arc(arc)
			if pl != layer || a.To != node || arc < int(v.off[pn]) || arc >= int(v.off[pn+1]) || !v.Admits(arc) {
				t.Fatalf("link arc %d does not lead from state %d to %d", arc, pred, x)
			}
			weights = append(weights, v.price[arc])
		}
		x = pred
	}
	if x >= n {
		t.Fatalf("walk ends on state %d, not in layer 0", x)
	}
	d := r.dist[x]
	for i := len(weights) - 1; i >= 0; i-- {
		d += weights[i]
	}
	return d, NodeID(x)
}

func randomLayeredCase(rng *rand.Rand) (*Graph, *CostOptions, *LayeredQuery) {
	n := 8 + rng.Intn(25)
	g := New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(NodeID(rng.Intn(v)), NodeID(v), 1+rng.Float64()*9, float64(rng.Intn(4)))
	}
	for extra := rng.Intn(2 * n); extra > 0; extra-- {
		a, b := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
		if a != b {
			g.MustAddEdge(a, b, 1+rng.Float64()*9, float64(rng.Intn(4)))
		}
	}
	opts := &CostOptions{}
	switch rng.Intn(3) {
	case 1: // capacity floor: some links inadmissible
		opts.MinCapacity = 1
	case 2: // the backup-embed shape: a primary's links and nodes banned
		opts.BannedEdges = map[EdgeID]bool{}
		for i := rng.Intn(n); i > 0; i-- {
			opts.BannedEdges[EdgeID(rng.Intn(g.NumEdges()))] = true
		}
		opts.BannedNodes = map[NodeID]bool{}
		for i := rng.Intn(4); i > 0; i-- {
			opts.BannedNodes[NodeID(rng.Intn(n))] = true
		}
	}
	k := 1 + rng.Intn(6)
	// Rents reach well above the largest link price (10), and seeds lie
	// further apart than that: the two things a bucket queue sized from
	// link prices alone would get wrong.
	q := &LayeredQuery{Rent: make([][]float64, k), Target: None}
	vetoed := map[[2]int]bool{}
	for j := range q.Rent {
		q.Rent[j] = make([]float64, n)
		for v := range q.Rent[j] {
			q.Rent[j][v] = Inf
			if rng.Intn(3) == 0 {
				q.Rent[j][v] = rng.Float64() * 60
				if rng.Intn(8) == 0 {
					vetoed[[2]int{j, v}] = true
				}
			}
		}
	}
	q.Admit = func(layer int, v NodeID) bool { return !vetoed[[2]int{layer, int(v)}] }
	for i := 1 + rng.Intn(5); i > 0; i-- {
		q.Seeds = append(q.Seeds, LayeredSeed{Node: NodeID(rng.Intn(n)), Dist: rng.Float64() * 100})
	}
	if rng.Intn(2) == 0 {
		q.Target = NodeID(rng.Intn(n))
	} else {
		q.MaxExits = 1 + rng.Intn(n)
	}
	return g, opts, q
}

// TestLayeredDijkstraMatchesBellmanFord runs the kernel against the oracle
// on random substrates, rents, vetoes, seed sets, ban sets and both
// stopping rules, all on one Scratch so every search also exercises the
// sparse reset behind a search of a different size.
func TestLayeredDijkstraMatchesBellmanFord(t *testing.T) {
	s := NewScratch()
	unreachable := 0
	for seed := int64(1); seed <= 400; seed++ {
		g, opts, q := randomLayeredCase(rand.New(rand.NewSource(seed)))
		v := g.CompileView(opts)
		want := layeredOracle(v, q)
		r := v.LayeredDijkstraWith(s, q)
		n, k := g.NumNodes(), len(q.Rent)

		// Every exit carries the oracle's distance, and its predecessor
		// chain is a real walk of exactly that length from a seed.
		for _, x := range r.Exits() {
			if r.dist[x] != want[x] {
				t.Fatalf("seed %d: state %d dist %v, Bellman–Ford %v", seed, x, r.dist[x], want[x])
			}
			if got, _ := walkLength(t, v, q, r, x); got != want[x] {
				t.Fatalf("seed %d: walk into state %d adds up to %v, dist %v", seed, x, got, want[x])
			}
		}
		if q.Target != None {
			x := k*n + int(q.Target)
			reachable := !math.IsInf(want[x], 1)
			if !reachable {
				unreachable++
			}
			if got := r.Exits(); reachable != (len(got) == 1 && got[0] == x) {
				t.Fatalf("seed %d: target reachable=%v, exits %v", seed, reachable, got)
			}
			continue
		}
		// Early stop: the exits are the MaxExits cheapest layer-k states in
		// strict (dist, state) order.
		var all []int
		for x := k * n; x < (k+1)*n; x++ {
			if !math.IsInf(want[x], 1) {
				all = append(all, x)
			}
		}
		sort.Slice(all, func(i, j int) bool {
			return want[all[i]] < want[all[j]] || (want[all[i]] == want[all[j]] && all[i] < all[j])
		})
		if len(all) > q.MaxExits {
			all = all[:q.MaxExits]
		}
		got := r.Exits()
		if len(got) != len(all) {
			t.Fatalf("seed %d: %d exits, want %d", seed, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("seed %d: exit %d is state %d, want %d", seed, i, got[i], all[i])
			}
		}
	}
	if unreachable == 0 {
		t.Fatal("no case had an unreachable target; the corpus no longer covers it")
	}
}

// TestLayeredScratchReuseAfterEarlyStop stops a layered search early on a
// Scratch — once at its first exit, once at its target — with states still
// queued, then runs a different query on the same Scratch: it must equal
// that query on a fresh Scratch state by state (distance bits, pred, via),
// in its exits and in what it settled. A reset that forgets a queued
// state's heap position hands the next search a heap it does not hold.
func TestLayeredScratchReuseAfterEarlyStop(t *testing.T) {
	left := 0
	for seed := int64(1); seed <= 200; seed++ {
		g, opts, q := randomLayeredCase(rand.New(rand.NewSource(seed)))
		n := g.NumNodes()
		v := g.CompileView(opts)
		stops := []LayeredQuery{
			{Rent: q.Rent, Admit: q.Admit, Seeds: q.Seeds, Target: None, MaxExits: 1},
			{Rent: q.Rent, Admit: q.Admit, Seeds: q.Seeds, Target: NodeID(seed % int64(n))},
		}
		next := *q
		next.Seeds = nil
		for _, sd := range q.Seeds {
			next.Seeds = append(next.Seeds, LayeredSeed{Node: (sd.Node + 1) % NodeID(n), Dist: sd.Dist / 2})
		}
		if next.Target != None && seed%2 == 0 {
			directTowards(v, &next)
		}
		want := v.LayeredDijkstraWith(NewScratch(), &next)
		for i := range stops {
			s := NewScratch()
			v.LayeredDijkstraWith(s, &stops[i])
			left += len(s.layered.queue.nodes)
			got := v.LayeredDijkstraWith(s, &next)
			if got.Settled() != want.Settled() || !slices.Equal(got.Exits(), want.Exits()) {
				t.Fatalf("seed %d, stop %d: reused scratch settled %d with exits %v, a fresh one %d with %v",
					seed, i, got.Settled(), got.Exits(), want.Settled(), want.Exits())
			}
			for x := range want.dist {
				if math.Float64bits(got.dist[x]) != math.Float64bits(want.dist[x]) ||
					got.pred[x] != want.pred[x] || got.via[x] != want.via[x] {
					t.Fatalf("seed %d, stop %d: state %d holds (%v, pred %d, via %d), a fresh scratch (%v, pred %d, via %d)",
						seed, i, x, got.dist[x], got.pred[x], got.via[x], want.dist[x], want.pred[x], want.via[x])
				}
			}
		}
	}
	if left == 0 {
		t.Fatal("no early stop left a state queued; the corpus no longer covers the reset")
	}
}

// directTowards gives the terminal query q the potential core gives it: the
// complete tree rooted at the target on the same view, and the least rent
// still ahead of every layer — minima over all nodes, vetoed hosts included,
// as a lower bound may be.
func directTowards(v *CostView, q *LayeredQuery) {
	k := len(q.Rent)
	q.PotLink = v.DijkstraWith(NewScratch(), q.Target).Dist
	q.PotRent = make([]float64, k+1)
	for j := k - 1; j >= 0; j-- {
		q.PotRent[j] = q.PotRent[j+1] + slices.Min(q.Rent[j])
	}
}

// chainInto lists the states on the kernel's predecessor chain into x.
func chainInto(r *LayeredSearch, x int) []int {
	var chain []int
	for ; x >= 0; x, _ = r.Pred(x) {
		chain = append(chain, x)
	}
	return chain
}

// TestLayeredDirectedMatchesPlain re-runs the Bellman–Ford corpus as
// terminal queries, once plain and once with the potential: the target must
// be reachable for both or neither, at the same distance — bit for bit
// unless rounding let the directed search keep a different, equally cheap
// walk, and then within 1e-9 — along a real walk of that length, and never
// after settling more states than the plain search.
func TestLayeredDirectedMatchesPlain(t *testing.T) {
	s := NewScratch()
	var unreachable, bannedTarget, bannedSeed, infPot, vetoed, dearRent, saved int
	for seed := int64(1); seed <= 400; seed++ {
		g, opts, q := randomLayeredCase(rand.New(rand.NewSource(seed)))
		n, k := g.NumNodes(), len(q.Rent)
		if q.Target == None {
			q.Target, q.MaxExits = NodeID(seed%int64(n)), 0
		}
		v := g.CompileView(opts)
		want := layeredOracle(v, q)[k*n+int(q.Target)]

		r := v.LayeredDijkstraWith(s, q)
		plainSettled := r.Settled()
		var plainChain []int
		if len(r.Exits()) == 1 {
			plainChain = chainInto(r, r.Exits()[0])
		}

		directTowards(v, q)
		r = v.LayeredDijkstraWith(s, q)
		if r.Settled() > plainSettled {
			t.Fatalf("seed %d: directed search settled %d states, plain %d", seed, r.Settled(), plainSettled)
		}
		saved += plainSettled - r.Settled()
		// What the corpus has to cover for the rest to mean anything.
		if v.NodeBanned(q.Target) {
			bannedTarget++
		}
		for _, seed := range q.Seeds {
			if v.NodeBanned(seed.Node) {
				bannedSeed++
			}
		}
		for node, d := range q.PotLink {
			if math.IsInf(d, 1) && NodeID(node) != q.Target {
				infPot++
				break
			}
		}
		for j, row := range q.Rent {
			for node, rent := range row {
				if !math.IsInf(rent, 1) && !q.Admit(j, NodeID(node)) {
					vetoed++
				}
				if !math.IsInf(rent, 1) && rent > v.maxPrice {
					dearRent++
				}
			}
		}

		if reachable := !math.IsInf(want, 1); reachable != (len(r.Exits()) == 1) {
			t.Fatalf("seed %d: target reachable=%v, directed exits %v", seed, reachable, r.Exits())
		} else if !reachable {
			unreachable++
			continue
		}
		x := r.Exits()[0]
		got := r.dist[x]
		if walk, _ := walkLength(t, v, q, r, x); walk != got {
			t.Fatalf("seed %d: directed walk adds up to %v, dist %v", seed, walk, got)
		}
		if got != want && (slices.Equal(chainInto(r, x), plainChain) || math.Abs(got-want) > 1e-9*want) {
			t.Fatalf("seed %d: directed dist %v, plain %v", seed, got, want)
		}
	}
	if unreachable == 0 || bannedTarget == 0 || bannedSeed == 0 || infPot == 0 || vetoed == 0 || dearRent == 0 {
		t.Fatalf("corpus lost a case: %d unreachable targets, %d banned targets, %d banned seeds, %d with +Inf potentials, %d vetoes, %d rents above the largest link price",
			unreachable, bannedTarget, bannedSeed, infPot, vetoed, dearRent)
	}
	if saved == 0 {
		t.Fatal("the potential never saved a state")
	}

	// A banned target roots an empty tree — every PotLink entry +Inf, its own
	// included — yet a seed standing on it still reaches (target, k) by step
	// arcs alone, and must under the potential too.
	g := New(3)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	v := g.CompileView(&CostOptions{BannedNodes: map[NodeID]bool{2: true}})
	q := &LayeredQuery{
		Rent:   [][]float64{{Inf, 1, 4}, {Inf, 1, 8}},
		Seeds:  []LayeredSeed{{Node: 1}, {Node: 2, Dist: 0.5}},
		Target: 2,
	}
	directTowards(v, q)
	if r := v.LayeredDijkstraWith(s, q); len(r.Exits()) != 1 || r.dist[r.Exits()[0]] != 12.5 || r.Settled() != 3 {
		t.Fatalf("banned target under the potential: exits %v after %d states, want it reached at 12.5 after 3", r.Exits(), r.Settled())
	}
}

// TestLayeredDijkstraTieBreak pins the strict (dist, state) order on a
// substrate built to tie: two hosts at equal distance settle in state
// order, and of two equally cheap walks into one state the one relaxed
// first — from the state that popped first — is kept.
func TestLayeredDijkstraTieBreak(t *testing.T) {
	//      1
	//    /   \
	//  0       3      all links price 1; hosts 1 and 2 rent 5
	//    \   /
	//      2
	g := New(4)
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(0, 2, 1, 1)
	g.MustAddEdge(1, 3, 1, 1)
	g.MustAddEdge(2, 3, 1, 1)
	v := g.CompileView(nil)
	rent := []float64{Inf, 5, 5, Inf}
	s := NewScratch()

	r := v.LayeredDijkstraWith(s, &LayeredQuery{
		Rent: [][]float64{rent}, Seeds: []LayeredSeed{{Node: 0}}, Target: None, MaxExits: 4,
	})
	if got := r.Exits(); len(got) != 2 || got[0] != 4+1 || got[1] != 4+2 {
		t.Fatalf("exits %v, want the layer-1 copies of nodes 1 then 2", got)
	}

	r = v.LayeredDijkstraWith(s, &LayeredQuery{
		Rent: [][]float64{rent}, Seeds: []LayeredSeed{{Node: 0}}, Target: 3,
	})
	if got := r.Exits(); len(got) != 1 || r.dist[got[0]] != 7 {
		t.Fatalf("exits %v, want the target at distance 7", got)
	}
	// (1, layer 1) pops before (2, layer 1) and relaxes node 3 first.
	if pred, _ := r.Pred(4 + 3); pred != 4+1 {
		t.Fatalf("target reached from state %d, want %d", pred, 4+1)
	}
}

// TestLayeredDijkstraSeeds covers the seed rules: the cheapest of several
// seeds on one node wins, and a walk may start from whichever seed makes
// it cheapest overall even when that seed is the dearer one.
func TestLayeredDijkstraSeeds(t *testing.T) {
	g := New(3) // 0 — 1 — 2, links price 1; the only host is node 2
	g.MustAddEdge(0, 1, 1, 1)
	g.MustAddEdge(1, 2, 1, 1)
	v := g.CompileView(nil)
	q := &LayeredQuery{
		Rent:   [][]float64{{Inf, Inf, 3}},
		Seeds:  []LayeredSeed{{Node: 0, Dist: 10}, {Node: 0, Dist: 4}, {Node: 2, Dist: 5.5}},
		Target: 1,
	}
	r := v.LayeredDijkstraWith(NewScratch(), q)
	// From node 0 (paid 4): 4+1+1+3+1 = 10. From node 2 (paid 5.5): 5.5+3+1 = 9.5.
	x := r.Exits()[0]
	if r.dist[x] != 9.5 {
		t.Fatalf("dist %v, want 9.5", r.dist[x])
	}
	if d, seed := walkLength(t, v, q, r, x); d != 9.5 || seed != 2 {
		t.Fatalf("walk of length %v from seed %d, want 9.5 from 2", d, seed)
	}
	if r.dist[0] != 4 {
		t.Fatalf("seed node 0 starts at %v, want the cheaper seed's 4", r.dist[0])
	}
}

func TestLayeredDijkstraWithZeroAllocs(t *testing.T) {
	g := benchGraph(200, 6)
	v := g.CompileView(nil)
	q := benchLayeredQuery(g, 6, 99)
	s := NewScratch()
	v.LayeredDijkstraWith(s, q)
	if allocs := testing.AllocsPerRun(20, func() { v.LayeredDijkstraWith(s, q) }); allocs != 0 {
		t.Fatalf("warm layered search allocates %.1f per run, want 0", allocs)
	}
	directTowards(v, q)
	if allocs := testing.AllocsPerRun(20, func() { v.LayeredDijkstraWith(s, q) }); allocs != 0 {
		t.Fatalf("warm directed layered search allocates %.1f per run, want 0", allocs)
	}
}

// benchLayeredQuery draws k rent rows with half the nodes hosting each
// layer's category at a rent around ten link prices — Table 2's deploy
// ratio and price ratio — for a terminal search from node 0.
func benchLayeredQuery(g *Graph, k int, target NodeID) *LayeredQuery {
	rng := rand.New(rand.NewSource(2))
	q := &LayeredQuery{Rent: make([][]float64, k), Seeds: []LayeredSeed{{Node: 0}}, Target: target}
	for j := range q.Rent {
		q.Rent[j] = make([]float64, g.NumNodes())
		for v := range q.Rent[j] {
			q.Rent[j][v] = Inf
			if rng.Intn(2) == 0 {
				q.Rent[j][v] = 45 + rng.Float64()*10
			}
		}
	}
	return q
}

// BenchmarkLayeredDijkstra500x7 is the search behind a six-layer serial
// embed on the Dijkstra500 substrate: seven stacked copies, one terminal
// search per iteration.
func BenchmarkLayeredDijkstra500x7(b *testing.B) {
	g := benchGraph(500, 6)
	v := g.CompileView(nil)
	q := benchLayeredQuery(g, 6, 0)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Seeds[0].Node, q.Target = NodeID(i%500), NodeID((i+250)%500)
		if len(v.LayeredDijkstraWith(s, q).Exits()) != 1 {
			b.Fatal("target not reached")
		}
	}
}

// BenchmarkLayeredDijkstra500x7Directed is the same search directed at its
// target, the potential's tree included: what a storeless serial embed pays.
func BenchmarkLayeredDijkstra500x7Directed(b *testing.B) {
	g := benchGraph(500, 6)
	v := g.CompileView(nil)
	q := benchLayeredQuery(g, 6, 0)
	directTowards(v, q)
	s := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Seeds[0].Node, q.Target = NodeID(i%500), NodeID((i+250)%500)
		q.PotLink = v.DijkstraWith(s, q.Target).Dist
		if len(v.LayeredDijkstraWith(s, q).Exits()) != 1 {
			b.Fatal("target not reached")
		}
	}
}
