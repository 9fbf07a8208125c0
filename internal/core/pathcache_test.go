package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/telemetry"
)

// arenaRun is one embed on a given arena: its outcome, and how many of the
// sources it asked Dijkstra trees of its arena's store served (hits) and
// how many it rooted afresh (misses; all of a banned or ledgerless run's).
type arenaRun struct {
	res          *Result
	err          error
	hits, misses int
}

// embedIn runs one embed on sc and recycles it, as releaseScratch does.
func embedIn(sc *pooledScratch, p *Problem, opts Options) arenaRun {
	defer sc.recycle()
	res, err := embedOn(context.Background(), p, opts, sc)
	hits := int(sc.e.treeHits)
	return arenaRun{res: res, err: err, hits: hits, misses: asked(&sc.e) - hits}
}

// asked counts the sources e has asked for a Dijkstra tree.
func asked(e *embedder) int {
	n := 0
	for _, a := range e.asked {
		if a != 0 {
			n++
		}
	}
	return n
}

// storeCounter reads one of the tree-store counters of the process's
// registry.
func storeCounter(name string) float64 {
	s, _ := telemetry.Default().Snapshot().Series(name)
	return s.Value
}

// TestPathCacheDeterminism is the store's transparency property: an embed
// on a cold arena, on the same arena warm, and on an arena nothing has used
// return the bit-identical result — a kept tree can only ever substitute
// the tree the run would have grown anyway.
func TestPathCacheDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)

	sc := newPooledScratch()
	for pass, label := range []string{"cold arena", "warm arena"} {
		run := embedIn(sc, p, MBBEOptions())
		assertSameResult(t, label, run.res, run.err, p, MBBEOptions())
		if pass == 0 && (run.misses == 0 || run.hits != 0) {
			t.Fatalf("cold pass: %d hits, %d misses", run.hits, run.misses)
		}
		if pass == 1 && (run.hits == 0 || run.misses != 0) {
			t.Fatalf("warm pass: %d hits, %d misses; want every tree kept", run.hits, run.misses)
		}
	}
}

// TestPathCacheFreshLedgerBypass: a problem without a ledger runs on a
// private fresh one and reuses no tree, so two embeds of one instance on one
// arena settle the same Dijkstra nodes, while the same instance with a ledger
// nobody touches, embedded again on an arena of its own, is served every
// tree it needs kept and settles none. On the Table 2-scale instance that is
// 0 nodes against the ledgerless run's 1093.
func TestPathCacheFreshLedgerBypass(t *testing.T) {
	for _, p := range []*Problem{randomProblem(rand.New(rand.NewSource(12)), 60, 5, 3), benchProblem(t)} {
		sc := newPooledScratch()
		first, second := embedIn(sc, p, MBBEOptions()), embedIn(sc, p, MBBEOptions())
		if first.err != nil || second.err != nil {
			t.Fatal(first.err, second.err)
		}
		if first.res.Stats.PathTreeNodes == 0 || second.res.Stats != first.res.Stats {
			t.Fatalf("ledgerless embeds settled %d, then %d tree nodes", first.res.Stats.PathTreeNodes, second.res.Stats.PathTreeNodes)
		}

		p.Ledger = network.NewLedger(p.Net)
		sc = newPooledScratch()
		cold, warm := embedIn(sc, p, MBBEOptions()), embedIn(sc, p, MBBEOptions())
		if cold.err != nil || warm.err != nil {
			t.Fatal(cold.err, warm.err)
		}
		if cold.res.Stats.PathTreeNodes == 0 || warm.res.Stats.PathTreeNodes != 0 {
			t.Fatalf("a ledger-backed embed on %d nodes settled %d tree nodes cold, then %d warm; want some, then none",
				p.Net.G.NumNodes(), cold.res.Stats.PathTreeNodes, warm.res.Stats.PathTreeNodes)
		}
	}
}

// TestPathCacheInvalidationOnMutation: what invalidates kept trees is a link
// crossing the demand threshold, nothing less. A reservation that leaves
// every link able to carry the rate keeps the arena's view and roots no
// tree; one that takes links below the rate gets a new view, fresh trees,
// and exactly what an embed on a cold arena returns.
func TestPathCacheInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)
	sc := newPooledScratch()
	if run := embedIn(sc, p, MBBEOptions()); run.err != nil {
		t.Fatal(run.err)
	}

	// Half the bandwidth of eight links gone: the epoch moved 8 times,
	// the admissible set not at all.
	for e := graph.EdgeID(0); e < 8; e++ {
		if err := p.Ledger.ReserveEdge(e, p.Ledger.EdgeResidual(e)/2); err != nil {
			t.Fatal(err)
		}
	}
	builds := storeCounter(telemetry.MetricCostViewBuilds)
	same := embedIn(sc, p, MBBEOptions())
	if same.misses != 0 || same.hits == 0 {
		t.Fatalf("a mutation that crossed no threshold: %d trees rooted, %d kept", same.misses, same.hits)
	}
	if storeCounter(telemetry.MetricCostViewBuilds) != builds {
		t.Fatal("a mutation that crossed no threshold compiled a new view")
	}
	assertSameResult(t, "below-threshold mutation", same.res, same.err, p, MBBEOptions())

	// Drain the same links to below the rate: the capacity filter now
	// rejects them, so stale trees would produce infeasible paths.
	for e := graph.EdgeID(0); e < 8; e++ {
		if err := p.Ledger.ReserveEdge(e, p.Ledger.EdgeResidual(e)-p.Rate/2); err != nil {
			t.Fatal(err)
		}
	}
	builds = storeCounter(telemetry.MetricCostViewBuilds)
	crossed := embedIn(sc, p, MBBEOptions())
	if crossed.hits != 0 || crossed.misses == 0 {
		t.Fatalf("post-mutation embed was served %d pre-mutation trees", crossed.hits)
	}
	if storeCounter(telemetry.MetricCostViewBuilds) != builds+1 {
		t.Fatal("crossing the threshold did not compile a new view")
	}
	assertSameResult(t, "threshold-crossing mutation", crossed.res, crossed.err, p, MBBEOptions())
}

// TestCompileOnDisplacement: an embed compiles its search view only when its
// residual row admits other arcs than the view its arena kept. A ledger is
// churned across the capacity floor — a reservation that stays above the
// rate, one below it and its release, a quarantine and an edge-down and their
// restores, a second rate — and dagsfc_costview_builds moves on exactly the
// runs whose admit set, as a fresh compilation gives it, differs from the
// kept view's, while every run equals the same embed on a cold arena.
func TestCompileOnDisplacement(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)
	g, l := p.Net.G, p.Ledger
	// leave reserves on edges lo..hi-1 whatever leaves them left residual.
	leave := func(lo, hi graph.EdgeID, left float64) {
		for e := lo; e < hi; e++ {
			if err := l.ReserveEdge(e, l.EdgeResidual(e)-left); err != nil {
				t.Fatal(err)
			}
		}
	}
	quarantine := network.Fault{Kind: network.FaultLinkDown, Link: 20}
	down := network.Fault{Kind: network.FaultEdgeDown, Link: 21}
	fault := func(f network.Fault, restore bool) func() {
		return func() {
			apply := l.ApplyFault
			if restore {
				apply = l.RestoreFault
			}
			if err := apply(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	steps := []struct {
		what string
		do   func()
	}{
		{"cold", func() {}},
		{"warm", func() {}},
		{"reserved, still above the rate", func() { leave(0, 8, 2*p.Rate) }},
		{"reserved below the rate", func() { leave(0, 4, p.Rate/2) }},
		{"released back", func() {
			for e := graph.EdgeID(0); e < 4; e++ {
				if err := l.ReleaseEdge(e, 1.5*p.Rate); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"quarantined", fault(quarantine, false)},
		{"edge down", fault(down, false)},
		{"quarantine restored", fault(quarantine, true)},
		{"edge restored", fault(down, true)},
		{"between two rates", func() { leave(30, 31, 1.5) }},
		{"the second rate", func() { p.Rate = 2 }},
		{"the first again", func() { p.Rate = 1 }},
	}
	sc := newPooledScratch()
	var kept *graph.CostView
	displaced, stayed := 0, 0
	for _, step := range steps {
		step.do()
		fresh := g.CompileView(l.CostOptions(p.Rate))
		moved := kept == nil
		for i := 0; !moved && i < 2*g.NumEdges(); i++ {
			moved = fresh.Admits(i) != kept.Admits(i)
		}
		builds := storeCounter(telemetry.MetricCostViewBuilds)
		run := embedIn(sc, p, MBBEOptions())
		if got := storeCounter(telemetry.MetricCostViewBuilds) - builds; got != map[bool]float64{false: 0, true: 1}[moved] {
			t.Fatalf("%s: %v views compiled; the admit set moved: %v", step.what, got, moved)
		}
		if moved {
			kept, displaced = fresh, displaced+1
		} else {
			stayed++
		}
		assertSameResult(t, step.what, run.res, run.err, p, MBBEOptions())
	}
	t.Logf("%d runs displaced the kept view, %d kept it", displaced, stayed)
	if displaced < 9 || stayed < 3 {
		t.Fatalf("vacuous: %d runs displaced the kept view, %d kept it", displaced, stayed)
	}
}

// assertSameResult fails unless (got, gotErr) is what an embed of p under
// plain on an arena nothing has used produces now: placement, cost bit for
// bit, search statistics, or the same error.
func assertSameResult(t testing.TB, what string, got *Result, gotErr error, p *Problem, plain Options) {
	t.Helper()
	if err := sameResult(got, gotErr, p, plain); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func sameResult(got *Result, gotErr error, p *Problem, plain Options) error {
	cold := embedIn(newPooledScratch(), p, plain)
	want, wantErr := cold.res, cold.err
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("warm embed err %v, cold embed err %v", gotErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		return errors.New("placement differs from the cold embed")
	}
	if math.Float64bits(got.Cost.VNFCost) != math.Float64bits(want.Cost.VNFCost) ||
		math.Float64bits(got.Cost.LinkCost) != math.Float64bits(want.Cost.LinkCost) {
		return fmt.Errorf("cost %+v, cold embed %+v", got.Cost, want.Cost)
	}
	if searchStats(got.Stats) != searchStats(want.Stats) {
		return fmt.Errorf("stats %+v, cold embed %+v", got.Stats, want.Stats)
	}
	return nil
}

// TestPathCacheBannedVariants: a banned run keeps its path view and trees
// to itself beside the store and binds only its capacity-only search view.
// Three properties: a banned embed on a warm arena equals the same embed on
// a cold one bit for bit, ban sets never leak into the trees unbanned runs
// are served, and the unbanned variant still finds its trees kept.
func TestPathCacheBannedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)

	// Ban elements the unbanned solution actually uses, so each variant is
	// forced onto genuinely different paths (the Yen/what-if shape).
	unbanned := embedIn(newPooledScratch(), p, MBBEOptions())
	if unbanned.err != nil {
		t.Fatal(unbanned.err)
	}
	var usedEdge graph.EdgeID = -1
	for _, l := range unbanned.res.Solution.Layers {
		for _, ip := range l.InterPaths {
			if len(ip.Edges) > 0 {
				usedEdge = ip.Edges[0]
			}
		}
	}
	if usedEdge < 0 && len(unbanned.res.Solution.TailPath.Edges) > 0 {
		usedEdge = unbanned.res.Solution.TailPath.Edges[0]
	}
	usedNode := unbanned.res.Solution.Layers[0].Nodes[0]
	if usedEdge < 0 {
		t.Fatal("unbanned solution uses no links; fixture too small")
	}

	variants := []struct {
		label string
		edges map[graph.EdgeID]bool
		nodes map[graph.NodeID]bool
	}{
		{label: "unbanned"},
		{label: "ban-edge", edges: map[graph.EdgeID]bool{usedEdge: true}},
		{label: "ban-node", nodes: map[graph.NodeID]bool{usedNode: true}},
		{label: "ban-both", edges: map[graph.EdgeID]bool{usedEdge: true}, nodes: map[graph.NodeID]bool{usedNode: true}},
	}
	// The ban sets must actually change results somewhere, or the test
	// proves nothing about cross-variant isolation.
	distinct := false
	for _, v := range variants[1:] {
		opts := MBBEOptions()
		opts.BannedEdges, opts.BannedNodes = v.edges, v.nodes
		if b := embedIn(newPooledScratch(), p, opts); b.err != nil || !reflect.DeepEqual(b.res.Solution, unbanned.res.Solution) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("no ban variant changed the solution; pick bans that matter")
	}

	sc := newPooledScratch()
	for pass, label := range []string{"cold", "warm"} {
		for _, v := range variants {
			opts := MBBEOptions()
			opts.BannedEdges, opts.BannedNodes = v.edges, v.nodes
			run := embedIn(sc, p, opts)
			assertSameResult(t, label+" "+v.label, run.res, run.err, p, opts)
			switch {
			case v.edges != nil || v.nodes != nil:
				if run.hits != 0 {
					t.Fatalf("%s %s: a banned run was served %d kept trees", label, v.label, run.hits)
				}
			case pass == 1 && run.hits == 0:
				t.Fatal("warm unbanned pass found no tree kept")
			}
		}
	}
}

// TestViewCacheDeterminism: the deprecated Options.PathCache and
// Options.ViewCache are no-ops. Two arenas driven in lockstep, one embed
// with both set and the other without, return identical results — the
// whole Stats included, PathTreeNodes too — cold, warm and after a mutation
// that forces a new view.
func TestViewCacheDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)

	deprecated := MBBEOptions()
	deprecated.PathCache, deprecated.ViewCache = graph.NewTreeCache(0), graph.NewViewCache(0)
	with, without := newPooledScratch(), newPooledScratch()
	for step, label := range []string{"cold", "warm", "post-mutation"} {
		if step == 2 {
			if err := p.Ledger.ReserveEdge(0, p.Ledger.EdgeResidual(0)-p.Rate/2); err != nil {
				t.Fatal(err)
			}
		}
		got, want := embedIn(with, p, deprecated), embedIn(without, p, MBBEOptions())
		if got.err != nil || want.err != nil {
			t.Fatalf("%s: %v, %v", label, got.err, want.err)
		}
		if !reflect.DeepEqual(got.res, want.res) || got.hits != want.hits || got.misses != want.misses {
			t.Fatalf("%s: the deprecated caches changed the embed", label)
		}
	}
}

// churnNet is a small substrate with link capacity tight enough that a
// handful of standing flows change which links can carry a given rate.
func churnNet(seed int64) *network.Network {
	cfg := netgen.Default()
	cfg.Nodes, cfg.VNFKinds, cfg.Connectivity = 36, 5, 4
	cfg.LinkCapacity, cfg.InstanceCapacity = 6, 12
	return netgen.MustGenerate(cfg, rand.New(rand.NewSource(seed)))
}

// churnProblem draws one request against net at one of four rates, so
// that successive requests compile genuinely different views.
func churnProblem(rng *rand.Rand, net *network.Network, ledger *network.Ledger) *Problem {
	s, src, dst := sfcgen.MustFlow(sfcgen.Config{Size: 2 + rng.Intn(3), LayerWidth: 3, VNFKinds: 5}, net.G.NumNodes(), rng)
	return &Problem{Net: net, Ledger: ledger, SFC: s, Src: src, Dst: dst, Rate: []float64{0.5, 1, 2, 3}[rng.Intn(4)], Size: 1}
}

// churnFaults applies or restores one random fault on ledger, keeping the
// active ones in *active.
func churnFaults(rng *rand.Rand, ledger *network.Ledger, active *[]network.Fault) {
	if n := len(*active); n > 0 && (n >= 4 || rng.Intn(2) == 0) {
		i := rng.Intn(n)
		_ = ledger.RestoreFault((*active)[i])
		*active = append((*active)[:i], (*active)[i+1:]...)
		return
	}
	link := graph.EdgeID(rng.Intn(ledger.Network().G.NumEdges()))
	f := []network.Fault{
		{Kind: network.FaultEdgeDown, Link: link},
		{Kind: network.FaultLinkDown, Link: link},
		{Kind: network.FaultLinkDegrade, Link: link, Fraction: 0.5},
	}[rng.Intn(3)]
	if ledger.ApplyFault(f) == nil {
		*active = append(*active, f)
	}
}

// TestPathCacheDifferential is the warm-versus-cold property under churn:
// through 400 steps of commit, release, quarantine, edge-down and restore at
// tight capacity and mixed rates, with every seventh embed banned, every
// embed on one warm arena equals the same embed on an arena nothing has
// used — placement, cost bits, search counts, or the same error. The warm
// arena's store is trimmed to a handful of trees after every embed, fewer
// than many runs ask for: its least recently used trees leave and are
// re-rooted, and the trees a run holds must survive its own misses. A run
// that saw no hit, no miss, no eviction, or fewer than 12 new views on the
// warm arena (admissible sets that really changed, displacing the kept view
// and its trees) proved nothing and fails.
func TestPathCacheDifferential(t *testing.T) {
	const storeBudget = 20 << 10 // a handful of 36-node trees beside the view
	var hits, misses, lru, builds int
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := churnNet(seed)
		live := network.NewLedger(net)
		warm := newPooledScratch()
		type flow struct {
			p   *Problem
			sol *Solution
		}
		var flows []flow
		var faults []network.Fault
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 2 && len(flows) > 0:
				i := rng.Intn(len(flows))
				if err := Release(flows[i].p, flows[i].sol); err != nil {
					t.Fatalf("seed %d step %d: release: %v", seed, step, err)
				}
				flows = append(flows[:i], flows[i+1:]...)
			case op < 4:
				churnFaults(rng, live, &faults)
			}
			p := churnProblem(rng, net, live)
			opts := MBBEOptions()
			if step%7 == 0 {
				opts.BannedEdges = map[graph.EdgeID]bool{graph.EdgeID(rng.Intn(net.G.NumEdges())): true}
			}
			reuses, evictions := storeCounter(telemetry.MetricCostViewReuses), storeCounter(telemetry.MetricPathCacheEvictions)
			run := embedIn(warm, p, opts)
			ev := warm.mem.store.Trim(storeBudget) + int(storeCounter(telemetry.MetricPathCacheEvictions)-evictions)
			if storeCounter(telemetry.MetricCostViewReuses) > reuses {
				lru += ev // the view stayed, so no tree left with it
			} else {
				builds++ // Bind displaced the kept view and forgot its trees
			}
			hits, misses = hits+run.hits, misses+run.misses
			assertSameResult(t, fmt.Sprintf("seed %d step %d", seed, step), run.res, run.err, p, opts)
			if run.err == nil && len(flows) < 24 {
				if _, err := Commit(p, run.res.Solution); err != nil {
					t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
				}
				flows = append(flows, flow{p, run.res.Solution})
			}
		}
	}
	t.Logf("trees: %d kept, %d rooted, %d evicted least recently used; %d views built", hits, misses, lru, builds)
	if hits == 0 || misses == 0 || lru == 0 || builds < 12 {
		t.Fatal("vacuous: the run must see kept trees, rooted trees, least-recently-used evictions and admissible sets that really differ")
	}
}

// TestPathCacheCoherenceRace is the -race half of the same property: four
// goroutines embed on snapshots through the arena pool while a writer
// commits, releases and applies faults, and every result must equal an
// embed of the same snapshot on a cold arena. Commits and releases overlap
// the embeds, as in the server; faults reach every snapshot of the family
// at once, so the writer applies them between compare windows (faultMu), or
// the two embeds being compared could see different networks. The writer
// takes a step count its rng draws, so its sequence recurs at its seed
// however the goroutines interleave.
func TestPathCacheCoherenceRace(t *testing.T) {
	net := churnNet(42)
	live := network.NewLedger(net)
	opts := MBBEOptions()
	hits0, misses0 := storeCounter(telemetry.MetricPathCacheHits), storeCounter(telemetry.MetricPathCacheMisses)

	var mu, faultMu sync.RWMutex // mu guards live, as the server's state mutex does
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(7))
		type flow struct {
			p   *Problem
			sol *Solution
		}
		var flows []flow
		var faults []network.Fault
		for steps := 240 + rng.Intn(60); steps > 0; steps-- {
			switch op := rng.Intn(8); {
			case op < 4 && len(flows) < 24:
				mu.Lock()
				p := churnProblem(rng, net, live)
				if res, err := Embed(p, opts); err == nil {
					if _, err := Commit(p, res.Solution); err != nil {
						t.Errorf("writer: commit: %v", err)
					} else {
						flows = append(flows, flow{p, res.Solution})
					}
				}
				mu.Unlock()
			case op < 7 && len(flows) > 0:
				i := rng.Intn(len(flows))
				mu.Lock()
				if err := Release(flows[i].p, flows[i].sol); err != nil {
					t.Errorf("writer: release: %v", err)
				}
				mu.Unlock()
				flows = append(flows[:i], flows[i+1:]...)
			default:
				faultMu.Lock()
				mu.Lock()
				churnFaults(rng, live, &faults)
				mu.Unlock()
				faultMu.Unlock()
			}
		}
	}()

	var embedders sync.WaitGroup
	for q := 0; q < 4; q++ {
		embedders.Add(1)
		go func(q int) {
			defer embedders.Done()
			rng := rand.New(rand.NewSource(int64(100 + q)))
			for i := 0; i < 120; i++ {
				faultMu.RLock()
				mu.RLock()
				snap := live.Snapshot()
				mu.RUnlock()
				p := churnProblem(rng, net, snap)
				got, gotErr := Embed(p, opts)
				err := sameResult(got, gotErr, p, opts)
				faultMu.RUnlock()
				if err != nil {
					t.Errorf("embedder %d iter %d: %v", q, i, err)
					return
				}
			}
		}(q)
	}
	embedders.Wait()
	writer.Wait()
	hits, misses := storeCounter(telemetry.MetricPathCacheHits)-hits0, storeCounter(telemetry.MetricPathCacheMisses)-misses0
	if hits == 0 || misses == 0 {
		t.Fatalf("race test saw %v kept trees, %v rooted: the arena stores went unexercised", hits, misses)
	}
}

// TestPathCacheHitPathZeroAllocs is the allocation budget for a run that
// finds everything warm: compiling its view, binding it to the arena's
// store and being served kept trees, grown further or not, must not
// allocate.
func TestPathCacheHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := benchProblem(t)
	p.Ledger = network.NewLedger(p.Net)
	sc := newPooledScratch()
	var kept uint64
	run := func() {
		e := newEmbedder(context.Background(), p, MBBEOptions(), sc)
		if e.trees != &sc.mem.store {
			t.Fatal("a ledger-backed run does not use its arena's store")
		}
		for src := graph.NodeID(0); src < 16; src++ {
			e.treeFor(src, src+16)
		}
		e.treeFor(p.Dst, graph.None)
		kept = e.treeHits
		sc.recycle()
	}
	run() // root the trees
	run() // and grow the arena's run storage
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("a warm run's view bind and 17 kept trees allocated %.0f objects, want 0", allocs)
	}
	if kept != 17 {
		t.Fatalf("vacuous: %d of 17 trees were kept", kept)
	}
}

// searchStats is s without PathTreeNodes and its closure share, the counters
// that say how far the run itself grew its Dijkstra trees rather than what
// it searched: a run that resumes kept trees settles fewer nodes.
func searchStats(s Stats) Stats {
	s.PathTreeNodes, s.ClosureTreeNodes = 0, 0
	return s
}
