package core

import (
	"fmt"
	"reflect"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
)

func TestObserverCallbackSequence(t *testing.T) {
	p := lineFixture()
	var events []string
	var leafTotal float64
	opts := MBBEOptions()
	opts.Observer = FuncObserver{
		OnLayerStart: func(spec LayerSpec, parents int) {
			events = append(events, "start")
			if parents < 1 {
				t.Errorf("layer %d started with %d parents", spec.Index, parents)
			}
		},
		OnSearchDone: func(layer int, start graph.NodeID, forward bool, size int, covered bool) {
			if forward {
				events = append(events, "fwd")
			} else {
				events = append(events, "bwd")
			}
			if size < 1 {
				t.Errorf("empty search tree reported")
			}
		},
		OnLayerDone: func(spec LayerSpec, kept int, cheapest float64) {
			events = append(events, "done")
			if kept < 1 || cheapest <= 0 {
				t.Errorf("layer %d done with kept=%d cheapest=%v", spec.Index, kept, cheapest)
			}
		},
		OnLeaf: func(total float64) {
			events = append(events, "leaf")
			leafTotal = total
		},
	}
	res, err := Embed(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if leafTotal != res.Cost.Total() {
		t.Fatalf("leaf callback total %v != result %v", leafTotal, res.Cost.Total())
	}
	// Two layers: start fwd [bwd...] done, twice, then leaf at the end. The
	// first layer is a single-VNF run, so its one forward search is the
	// layered kernel's; the parallel layer's is an FST.
	if res.Stats.LayeredRuns != 1 || res.Stats.LayeredFallbacks != 0 {
		t.Fatalf("layered runs/fallbacks = %d/%d, want 1/0", res.Stats.LayeredRuns, res.Stats.LayeredFallbacks)
	}
	if len(events) < 7 {
		t.Fatalf("too few events: %v", events)
	}
	if events[0] != "start" || events[len(events)-1] != "leaf" {
		t.Fatalf("event order wrong: %v", events)
	}
	starts, dones, fwds, bwds := 0, 0, 0, 0
	for _, ev := range events {
		switch ev {
		case "start":
			starts++
		case "done":
			dones++
		case "fwd":
			fwds++
		case "bwd":
			bwds++
		}
	}
	if starts != 2 || dones != 2 {
		t.Fatalf("starts=%d dones=%d, want 2/2", starts, dones)
	}
	if fwds != 2 || bwds < 1 {
		t.Fatalf("fwds=%d bwds=%d", fwds, bwds)
	}
}

// hybridFixture builds a three-layer hybrid SFC — [f1] -> [f2|f3 +m] ->
// [f4] — on a line network with exactly one deployment per category, so
// every layer keeps exactly one sub-solution and the full Observer
// callback sequence is deterministic:
//
//	0 --- 1 --- 2 --- 3
//	f1@0  f2,f3@1  m@2  f4@3       src 0, dst 3
func hybridFixture() *Problem {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	net := network.New(g, network.Catalog{N: 4})
	net.MustAddInstance(0, 1, 10, 10)
	net.MustAddInstance(1, 2, 10, 10)
	net.MustAddInstance(1, 3, 10, 10)
	net.MustAddInstance(2, net.Catalog.Merger(), 5, 10)
	net.MustAddInstance(3, 4, 10, 10)
	return &Problem{
		Net: net,
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{
			{VNFs: []network.VNFID{1}},
			{VNFs: []network.VNFID{2, 3}},
			{VNFs: []network.VNFID{4}},
		}},
		Src: 0, Dst: 3, Rate: 1, Size: 1,
	}
}

// TestObserverExactSequenceHybridSFC pins the complete callback order for
// the deterministic hybrid fixture. Layer 1's search starts at the source,
// layer 2's at layer 1's end node (0, since f1 is at the source), and
// layer 3's at layer 2's merger (2). The parallel layer runs exactly one
// backward search because the forward tree ({0,1,2}; under MBBE, which
// looks one ring past coverage, {0,1,2,3}) contains one merger deployment. Layers 1 and 3 are single-VNF runs: MBBE hands them to the
// layered kernel (one search, one filter and one run event each, no
// extensions event), BBE searches them layer by layer.
func TestObserverExactSequenceHybridSFC(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want []string
	}{
		{"mbbe", MBBEOptions(), []string{
			"layer-start 1 parents=1",
			"search-start 1 fwd @0",
			// All four layer-0 states plus the one exit: f1 is only at the
			// source and the search runs on for 4 exits it cannot find.
			"search-done 1 fwd @0 size=5 covered=true",
			"filter 1 considered=1 cap=0 delay=0",
			"run 1-1 terminal=false seeds=1 settled=5 kept=1/1 fallback=",
			"layer-done 1 kept=1",
			"layer-start 2 parents=1",
			"search-start 2 fwd @0",
			"search-done 2 fwd @0 size=4 covered=true", // {0,1} + merger at 2, and one ring on: 3
			"search-start 2 bwd @2",
			"search-done 2 bwd @2 size=3 covered=true", // 1 covers f2,f3; 3 is of the same ring
			"extensions 2 @0 1/1",
			"filter 2 considered=1 cap=0 delay=0",
			"layer-done 2 kept=1",
			"layer-start 3 parents=1",
			"search-start 3 fwd @2", // layer 2 ends at its merger
			// Directed at the destination: the seed (2, layer 0), then
			// (3, layer 0) and (3, layer 1) — f4 and the destination are
			// both node 3, where the search stops.
			"search-done 3 fwd @2 size=3 covered=true",
			"filter 3 considered=1 cap=0 delay=0",
			"run 3-3 terminal=true seeds=1 settled=3 kept=1/1 fallback=",
			"layer-done 3 kept=1",
			"leaf",
		}},
		{"bbe", BBEOptions(), []string{
			"layer-start 1 parents=1",
			"search-start 1 fwd @0",
			"search-done 1 fwd @0 size=1 covered=true", // f1 is at the source
			"extensions 1 @0 1/1",
			"filter 1 considered=1 cap=0 delay=0",
			"layer-done 1 kept=1",
			"layer-start 2 parents=1",
			"search-start 2 fwd @0",
			"search-done 2 fwd @0 size=3 covered=true",
			"search-start 2 bwd @2",
			"search-done 2 bwd @2 size=2 covered=true",
			"extensions 2 @0 1/1",
			"filter 2 considered=1 cap=0 delay=0",
			"layer-done 2 kept=1",
			"layer-start 3 parents=1",
			"search-start 3 fwd @2",
			"search-done 3 fwd @2 size=3 covered=true", // {2,1,3}, f4 at 3
			"extensions 3 @2 1/1",
			"filter 3 considered=1 cap=0 delay=0",
			"layer-done 3 kept=1",
			"leaf",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { observeExactSequence(t, tc.opts, tc.want) })
	}
}

func observeExactSequence(t *testing.T, opts Options, want []string) {
	p := hybridFixture()
	var events []string
	record := func(format string, args ...any) {
		events = append(events, fmt.Sprintf(format, args...))
	}
	opts.Observer = FuncObserver{
		OnLayerStart: func(spec LayerSpec, parents int) {
			record("layer-start %d parents=%d", spec.Index, parents)
		},
		OnSearchStart: func(layer int, start graph.NodeID, forward bool) {
			record("search-start %d %s @%d", layer, dir(forward), start)
		},
		OnSearchDone: func(layer int, start graph.NodeID, forward bool, size int, covered bool) {
			record("search-done %d %s @%d size=%d covered=%v", layer, dir(forward), start, size, covered)
		},
		OnExtensionsBuilt: func(layer int, start graph.NodeID, generated, kept int) {
			record("extensions %d @%d %d/%d", layer, start, kept, generated)
		},
		OnCandidatesFiltered: func(layer int, considered, capacityRejected, delayRejected int) {
			record("filter %d considered=%d cap=%d delay=%d", layer, considered, capacityRejected, delayRejected)
		},
		OnLayeredRun: func(r LayeredRun) {
			record("run %d-%d terminal=%v seeds=%d settled=%d kept=%d/%d fallback=%s",
				r.First, r.Last, r.Terminal, r.Seeds, r.Settled, r.Kept, r.Exits, r.Fallback)
		},
		OnLayerDone: func(spec LayerSpec, kept int, cheapest float64) {
			record("layer-done %d kept=%d", spec.Index, kept)
		},
		OnLeaf: func(total float64) { record("leaf") },
	}
	if _, err := Embed(p, opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(events, want) {
		t.Fatalf("callback sequence mismatch:\n got: %q\nwant: %q", events, want)
	}
}

func dir(forward bool) string {
	if forward {
		return "fwd"
	}
	return "bwd"
}

// TestNilObserverZeroAlloc checks the nil-observer fast path of every
// notify helper allocates nothing, so an uninstrumented Embed pays no
// observability tax on the hot path.
func TestNilObserverZeroAlloc(t *testing.T) {
	e := &embedder{opts: Options{}} // Observer == nil
	spec := LayerSpec{Index: 1}
	allocs := testing.AllocsPerRun(200, func() {
		e.observeLayerStart(spec, 1)
		e.observeSearchStart(1, 0, true)
		e.observeSearch(1, 0, true, 3, true)
		e.observeExtensions(1, 0, 4, 2)
		e.observeFiltered(1, 4, 1, 0)
		e.observeLayerDone(spec, 2, 1.5)
		e.observeLeaf(2.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-observer notify helpers allocate %.1f per run, want 0", allocs)
	}
}

func TestNilObserverFieldsSafe(t *testing.T) {
	p := lineFixture()
	opts := MBBEOptions()
	opts.Observer = FuncObserver{} // all nil functions
	if _, err := Embed(p, opts); err != nil {
		t.Fatal(err)
	}
}

func TestNoObserverNoPanic(t *testing.T) {
	p := lineFixture()
	if _, err := EmbedMBBE(p); err != nil {
		t.Fatal(err)
	}
}
