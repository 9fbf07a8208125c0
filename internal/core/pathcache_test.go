package core

import (
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

// TestPathCacheDeterminism is the cache-transparency property: with the
// cross-request cache disabled, cold, or warm, an embed must return the
// bit-identical result — a cache hit can only ever substitute a tree the
// run would have computed anyway.
func TestPathCacheDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)

	baseline, err := Embed(p, MBBEOptions())
	if err != nil {
		t.Fatal(err)
	}

	cache := graph.NewTreeCache(0)
	for pass, label := range []string{"cold cache", "warm cache"} {
		opts := MBBEOptions()
		opts.PathCache = cache
		got, err := Embed(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(got.Solution, baseline.Solution) {
			t.Fatalf("%s: solution differs from uncached baseline", label)
		}
		if !reflect.DeepEqual(got.Cost, baseline.Cost) {
			t.Fatalf("%s: cost %v != baseline %v", label, got.Cost, baseline.Cost)
		}
		if searchStats(got.Stats) != searchStats(baseline.Stats) {
			t.Fatalf("%s: stats %+v != baseline %+v", label, got.Stats, baseline.Stats)
		}
		hits, misses, _ := cache.Stats()
		if pass == 0 && misses == 0 {
			t.Fatal("cold pass recorded no cache misses")
		}
		if pass == 1 && hits == 0 {
			t.Fatal("warm pass recorded no cache hits")
		}
	}
}

// TestPathCacheFreshLedgerBypass: a problem without a ledger runs on a
// private fresh one and shares nothing, so the cache must not be consulted
// at all.
func TestPathCacheFreshLedgerBypass(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	p := randomProblem(rng, 60, 5, 3)
	cache := graph.NewTreeCache(0)
	opts := MBBEOptions()
	opts.PathCache = cache
	if _, err := Embed(p, opts); err != nil {
		t.Fatal(err)
	}
	if hits, misses, _ := cache.Stats(); hits != 0 || misses != 0 || cache.Views() != 0 {
		t.Fatalf("ledger-less embed touched the cache: hits=%d misses=%d views=%d", hits, misses, cache.Views())
	}
}

// TestPathCacheInvalidationOnMutation: what invalidates shared trees is a
// link crossing the demand threshold, nothing less. A reservation that
// leaves every link able to carry the rate is served the warm view and
// computes no tree; one that takes links below the rate gets a new view,
// fresh trees, and exactly what an uncached embed on the mutated ledger
// returns.
func TestPathCacheInvalidationOnMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)
	cache := graph.NewTreeCache(0)
	opts := MBBEOptions()
	opts.PathCache = cache

	if _, err := Embed(p, opts); err != nil {
		t.Fatal(err)
	}
	_, missesWarm, _ := cache.Stats()
	_, buildsWarm := cache.ViewStats()

	// Half the bandwidth of eight links gone: the epoch moved 8 times,
	// the admissible set not at all.
	for e := graph.EdgeID(0); e < 8; e++ {
		if err := p.Ledger.ReserveEdge(e, p.Ledger.EdgeResidual(e)/2); err != nil {
			t.Fatal(err)
		}
	}
	sameView, err := Embed(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := cache.Stats(); misses != missesWarm {
		t.Fatalf("a mutation that crossed no threshold computed %d trees", misses-missesWarm)
	}
	if _, builds := cache.ViewStats(); builds != buildsWarm {
		t.Fatal("a mutation that crossed no threshold compiled a new view")
	}
	assertSameResult(t, "below-threshold mutation", sameView, nil, p, MBBEOptions())

	// Drain the same links to below the rate: the capacity filter now
	// rejects them, so stale trees would produce infeasible paths.
	for e := graph.EdgeID(0); e < 8; e++ {
		if err := p.Ledger.ReserveEdge(e, p.Ledger.EdgeResidual(e)-p.Rate/2); err != nil {
			t.Fatal(err)
		}
	}
	crossed, err := Embed(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := cache.Stats(); misses <= missesWarm {
		t.Fatal("post-mutation embed was served from pre-mutation trees")
	}
	if _, builds := cache.ViewStats(); builds != buildsWarm+1 {
		t.Fatalf("crossing the threshold published %d views, want 1", builds-buildsWarm)
	}
	assertSameResult(t, "threshold-crossing mutation", crossed, nil, p, MBBEOptions())
}

// assertSameResult fails unless (got, gotErr) is what an embed of p under
// plain — the same options with no store attached — produces now:
// placement, cost bit for bit, search statistics, or the same error.
func assertSameResult(t testing.TB, what string, got *Result, gotErr error, p *Problem, plain Options) {
	t.Helper()
	if err := sameResult(got, gotErr, p, plain); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

func sameResult(got *Result, gotErr error, p *Problem, plain Options) error {
	want, wantErr := Embed(p, plain)
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			return fmt.Errorf("shared embed err %v, plain embed err %v", gotErr, wantErr)
		}
		return nil
	}
	if !reflect.DeepEqual(got.Solution, want.Solution) {
		return errors.New("placement differs from the plain embed")
	}
	if math.Float64bits(got.Cost.VNFCost) != math.Float64bits(want.Cost.VNFCost) ||
		math.Float64bits(got.Cost.LinkCost) != math.Float64bits(want.Cost.LinkCost) ||
		!reflect.DeepEqual(got.Cost.Usage, want.Cost.Usage) {
		return fmt.Errorf("cost %+v, plain embed %+v", got.Cost, want.Cost)
	}
	if searchStats(got.Stats) != searchStats(want.Stats) {
		return fmt.Errorf("stats %+v, plain embed %+v", got.Stats, want.Stats)
	}
	return nil
}

// TestPathCacheBannedVariants: a banned run keeps its view and trees to
// itself and shares only its capacity-only search view. Three properties:
// a banned embed with the cache attached equals a banned uncached embed
// bit for bit, ban sets never leak into the trees unbanned runs are
// served, and the unbanned variant still hits warm.
func TestPathCacheBannedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)
	cache := graph.NewTreeCache(0)

	// Ban elements the unbanned solution actually uses, so each variant is
	// forced onto genuinely different paths (the Yen/what-if shape).
	unbanned, err := Embed(p, MBBEOptions())
	if err != nil {
		t.Fatal(err)
	}
	var usedEdge graph.EdgeID = -1
	for _, l := range unbanned.Solution.Layers {
		for _, ip := range l.InterPaths {
			if len(ip.Edges) > 0 {
				usedEdge = ip.Edges[0]
			}
		}
	}
	if usedEdge < 0 && len(unbanned.Solution.TailPath.Edges) > 0 {
		usedEdge = unbanned.Solution.TailPath.Edges[0]
	}
	usedNode := unbanned.Solution.Layers[0].Nodes[0]
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
	type outcome struct {
		res *Result
		err error
	}
	baselines := make(map[string]outcome)
	for _, v := range variants {
		opts := MBBEOptions()
		opts.BannedEdges, opts.BannedNodes = v.edges, v.nodes
		res, err := Embed(p, opts)
		baselines[v.label] = outcome{res, err}
	}
	// The ban sets must actually change results somewhere, or the test
	// proves nothing about cross-variant isolation.
	distinct := false
	for _, v := range variants[1:] {
		b, u := baselines[v.label], baselines["unbanned"]
		if b.err != nil || !reflect.DeepEqual(b.res.Solution, u.res.Solution) {
			distinct = true
		}
	}
	if !distinct {
		t.Fatal("no ban variant changed the solution; pick bans that matter")
	}

	for pass, label := range []string{"cold", "warm"} {
		for _, v := range variants {
			opts := MBBEOptions()
			opts.PathCache = cache
			opts.BannedEdges, opts.BannedNodes = v.edges, v.nodes
			res, err := Embed(p, opts)
			want := baselines[v.label]
			if (err == nil) != (want.err == nil) {
				t.Fatalf("%s %s: err %v, uncached baseline err %v", label, v.label, err, want.err)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(res.Solution, want.res.Solution) || !reflect.DeepEqual(res.Cost, want.res.Cost) {
				t.Fatalf("%s %s: cached result differs from uncached baseline", label, v.label)
			}
		}
		hits, misses, _ := cache.Stats()
		if pass == 0 && misses == 0 {
			t.Fatal("cold pass recorded no cache misses")
		}
		if pass == 1 && hits == 0 {
			t.Fatal("warm pass recorded no cache hits")
		}
	}
}

// TestViewCacheDeterminism runs the transparency property through the
// deprecated Options.ViewCache field alone, which must attach the same
// store PathCache does: cold, warm and post-mutation embeds match an
// uncached baseline bit for bit, the cold pass publishes a view, the warm
// pass reuses it, and draining a link below the rate forces a new one.
func TestViewCacheDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	p := randomProblem(rng, 120, 6, 4)
	p.Ledger = network.NewLedger(p.Net)

	views := graph.NewViewCache(0)
	opts := MBBEOptions()
	opts.ViewCache = views
	for pass, label := range []string{"cold", "warm"} {
		got, err := Embed(p, opts)
		assertSameResult(t, label, got, err, p, MBBEOptions())
		reuses, builds := views.ViewStats()
		hits, _, _ := views.Stats()
		if pass == 0 && (builds != 1 || reuses != 0) {
			t.Fatalf("cold pass: %d views built, %d reused", builds, reuses)
		}
		if pass == 1 && (builds != 1 || reuses != 1 || hits == 0) {
			t.Fatalf("warm pass: %d views built, %d reused, %d tree hits", builds, reuses, hits)
		}
	}

	if err := p.Ledger.ReserveEdge(0, p.Ledger.EdgeResidual(0)-p.Rate/2); err != nil {
		t.Fatal(err)
	}
	got, err := Embed(p, opts)
	assertSameResult(t, "post-mutation", got, err, p, MBBEOptions())
	if _, builds := views.ViewStats(); builds != 2 {
		t.Fatalf("post-mutation embed reused a pre-mutation compiled view (%d built)", builds)
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
// that concurrent requests compile genuinely different views.
func churnProblem(rng *rand.Rand, net *network.Network, ledger *network.Ledger) *Problem {
	n := net.G.NumNodes()
	return &Problem{
		Net:    net,
		SFC:    sfcgen.MustGenerate(sfcgen.Config{Size: 2 + rng.Intn(3), LayerWidth: 3, VNFKinds: 5}, rng),
		Src:    graph.NodeID(rng.Intn(n)),
		Dst:    graph.NodeID(rng.Intn(n)),
		Rate:   []float64{0.5, 1, 2, 3}[rng.Intn(4)],
		Size:   1,
		Ledger: ledger,
	}
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

// TestPathCacheDifferential is the store's transparency property under
// churn: through 400 steps of commit, release, quarantine, edge-down and
// restore at tight capacity and mixed rates, every embed with the store
// attached equals the same embed without it — placement, cost bits,
// Stats, or the same error. A run that saw no hit, no miss or no eviction
// proved nothing and fails.
func TestPathCacheDifferential(t *testing.T) {
	var hits, misses, evictions, reuses, builds uint64
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := churnNet(seed)
		live := network.NewLedger(net)
		cache := graph.NewTreeCache(0)
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
			plain := MBBEOptions()
			if step%7 == 0 {
				plain.BannedEdges = map[graph.EdgeID]bool{graph.EdgeID(rng.Intn(net.G.NumEdges())): true}
			}
			shared := plain
			shared.PathCache = cache
			got, err := Embed(p, shared)
			assertSameResult(t, fmt.Sprintf("seed %d step %d", seed, step), got, err, p, plain)
			if err == nil && len(flows) < 24 {
				if _, err := Commit(p, got.Solution); err != nil {
					t.Fatalf("seed %d step %d: commit: %v", seed, step, err)
				}
				flows = append(flows, flow{p, got.Solution})
			}
		}
		h, m, e := cache.Stats()
		r, b := cache.ViewStats()
		hits, misses, evictions, reuses, builds = hits+h, misses+m, evictions+e, reuses+r, builds+b
	}
	t.Logf("trees: %d hits, %d misses, %d evicted; views: %d reused, %d built", hits, misses, evictions, reuses, builds)
	if hits == 0 || misses == 0 || evictions == 0 || reuses == 0 || builds < 12 {
		t.Fatal("vacuous: the run must see tree hits, misses and evictions, view reuse and admissible sets that really differ")
	}
}

// TestPathCacheCoherenceRace is the -race half of the same property: four
// goroutines embed on snapshots through one store while a writer commits,
// releases and applies faults, and every result must equal an uncached
// embed of the same snapshot. Commits and releases overlap the embeds, as
// in the server; faults reach every snapshot of the family at once, so the
// writer applies them between compare windows (faultMu), or the two embeds
// being compared could see different networks.
func TestPathCacheCoherenceRace(t *testing.T) {
	net := churnNet(42)
	live := network.NewLedger(net)
	cache := graph.NewTreeCache(0)
	shared := MBBEOptions()
	shared.PathCache = cache
	plain := MBBEOptions()

	var mu, faultMu sync.RWMutex // mu guards live, as the server's state mutex does
	stop := make(chan struct{})
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
		for {
			select {
			case <-stop:
				return
			default:
			}
			switch op := rng.Intn(8); {
			case op < 4 && len(flows) < 24:
				mu.Lock()
				p := churnProblem(rng, net, live)
				if res, err := Embed(p, shared); err == nil {
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
				got, gotErr := Embed(p, shared)
				err := sameResult(got, gotErr, p, plain)
				faultMu.RUnlock()
				if err != nil {
					t.Errorf("embedder %d iter %d: %v", q, i, err)
					return
				}
			}
		}(q)
	}
	embedders.Wait()
	close(stop)
	writer.Wait()
	hits, misses, _ := cache.Stats()
	if hits == 0 || misses == 0 {
		t.Fatalf("race test saw %d hits, %d misses: shared path unexercised", hits, misses)
	}
}

// TestPathCacheHitPathZeroAllocs is the allocation budget for a run that
// finds everything warm: being served the retained view and a published
// tree, and reporting the hits, must not allocate.
func TestPathCacheHitPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops the scratch View compiles into at random under -race")
	}
	g := buildTestGraphForAllocs()
	cache := graph.NewTreeCache(0)
	view, _, _ := cache.View(g, nil)
	cache.Tree(view, 3)
	telemetry.RecordPathCacheHits(1) // warm the counter family
	allocs := testing.AllocsPerRun(20, func() {
		v, reused, _ := cache.View(g, nil)
		if _, hit, _ := cache.Tree(v, 3); !reused || !hit {
			t.Fatal("warm lookup missed")
		}
		telemetry.RecordPathCacheHits(1)
	})
	if allocs != 0 {
		t.Fatalf("cache-hit path allocated %v objects per run, want 0", allocs)
	}
}

func buildTestGraphForAllocs() *graph.Graph {
	g := graph.New(40)
	for v := 1; v < 40; v++ {
		g.MustAddEdge(graph.NodeID(v-1), graph.NodeID(v), 1, 100)
	}
	return g
}

// searchStats is s without PathTreeNodes and its closure share, the counters
// that say where a run's Dijkstra trees came from rather than what it
// searched: a run served by a shared store grows none of its own.
func searchStats(s Stats) Stats {
	s.PathTreeNodes, s.ClosureTreeNodes = 0, 0
	return s
}
