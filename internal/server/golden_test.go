package server_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// goldenFlow is one timed request of a golden scenario: it arrives at
// arrival and is released hold later.
type goldenFlow struct {
	req           server.FlowRequest
	arrival, hold float64
}

// goldenScenario is one seed's tight substrate (capacity for three or four
// flows per link and instance, so rejections, stranded flows and evictions
// all occur), 150 timed requests and a fault schedule with hard edge-downs.
// The rng draws every request's SFC and endpoints first, then each one's
// exponential gap (mean 0.5) and hold (mean 12), then the schedule.
func goldenScenario(seed int64) (*network.Network, []goldenFlow, faults.Schedule) {
	rng := rand.New(rand.NewSource(seed))
	cfg := netgen.Default()
	cfg.Nodes, cfg.VNFKinds, cfg.Connectivity = 45+10*int(seed), 6, 4
	cfg.LinkCapacity, cfg.InstanceCapacity = 4, 3
	net := netgen.MustGenerate(cfg, rng)
	nodes := net.G.NumNodes()
	flows := make([]goldenFlow, 150)
	for i := range flows {
		s := sfcgen.MustGenerate(sfcgen.Config{Size: 4, LayerWidth: 3, VNFKinds: 6}, rng)
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		for dst == src {
			dst = rng.Intn(nodes)
		}
		flows[i].req = server.FlowRequest{SFC: sfc.Format(s), Src: src, Dst: dst, Rate: 1, Size: 1}
	}
	clock := 0.0
	for i := range flows {
		clock += rng.ExpFloat64() * 0.5
		flows[i].arrival, flows[i].hold = clock, rng.ExpFloat64()*12
	}
	return net, flows, hardSchedule(rng, nodes, net.G.NumEdges())
}

// hardSchedule draws 25 incidents as faults.Generate does (mean gap 3,
// mean hold 8, node fraction 0.2, degrade fraction 0.3), with one draw
// more per link incident: with probability 0.4 it is a hard edge-down.
func hardSchedule(rng *rand.Rand, nodes, edges int) faults.Schedule {
	s := make(faults.Schedule, 0, 25)
	clock := 0.0
	for i := 0; i < 25; i++ {
		clock += rng.ExpFloat64() * 3
		inc := faults.Incident{At: clock, Duration: rng.ExpFloat64()*8 + 1e-6}
		switch {
		case rng.Float64() < 0.2:
			inc.Fault = network.Fault{Kind: network.FaultNodeDown, Node: graph.NodeID(rng.Intn(nodes))}
		case rng.Float64() < 0.4:
			inc.Fault = network.Fault{Kind: network.FaultEdgeDown, Link: graph.EdgeID(rng.Intn(edges))}
		case rng.Float64() < 0.3:
			inc.Fault = network.Fault{Kind: network.FaultLinkDegrade, Link: graph.EdgeID(rng.Intn(edges)), Fraction: 0.25 + 0.75*rng.Float64()}
		default:
			inc.Fault = network.Fault{Kind: network.FaultLinkDown, Link: graph.EdgeID(rng.Intn(edges))}
		}
		s = append(s, inc)
	}
	return s
}

// Event kinds, in the order they fire at equal timestamps: departures
// release capacity first, then restores return quarantined capacity, then
// faults strike, then arrivals are admitted. Remaining ties break on the
// request or incident index.
const (
	evDeparture = iota
	evRestore
	evStrike
	evArrival
)

type goldenEvent struct {
	at    float64
	kind  int
	idx   int // request index, or schedule incident for the fault kinds
	fault network.Fault
}

// goldenEvents is one mode's timeline: "run" admits every flow at time 0
// and releases none, "churn" adds each flow's departure, "failures" adds
// the fault schedule.
func goldenEvents(mode string, flows []goldenFlow, sched faults.Schedule) []goldenEvent {
	var events []goldenEvent
	for i, f := range flows {
		if mode == "run" {
			events = append(events, goldenEvent{kind: evArrival, idx: i})
			continue
		}
		events = append(events,
			goldenEvent{at: f.arrival, kind: evArrival, idx: i},
			goldenEvent{at: f.arrival + f.hold, kind: evDeparture, idx: i})
	}
	if mode == "failures" {
		for _, ev := range sched.Events() {
			kind := evRestore
			if ev.Apply {
				kind = evStrike
			}
			events = append(events, goldenEvent{at: ev.At, kind: kind, idx: ev.Incident, fault: ev.Fault})
		}
	}
	slices.SortStableFunc(events, func(a, b goldenEvent) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.kind, b.kind), cmp.Compare(a.idx, b.idx))
	})
	return events
}

// goldenResult is what one play of a timeline pins: the acceptances, for
// the floor, and a fingerprint of everything deterministic about the run —
// the counters, the total cost bit for bit, a hash over every request's
// outcome (accepted, cost bits) and one over the journal's fault
// consequences, which it also keeps in full for two plays to compare.
type goldenResult struct {
	accepted    int
	fingerprint string
	log         []repairOutcome
}

// goldenPlay plays one mode's timeline on a fresh server, one event at a
// time: each arrival is a Submit with alg, each departure a Release, and
// each fault event waits for the restore controller to settle before the
// next event fires, so the run is deterministic. Every flow of a churn or
// failures timeline departs and every fault is restored, so its ledger
// must end at the seed's bits.
func goldenPlay(t *testing.T, net *network.Network, flows []goldenFlow, sched faults.Schedule, alg, mode string) goldenResult {
	t.Helper()
	srv, err := server.New(server.Config{
		Net: net, Seed: 1, RepairBackoff: 5 * time.Millisecond, RepairBackoffCap: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	seed := srv.NetworkState()
	ids := make([]int64, len(flows))
	costs := make([]float64, len(flows))
	acc, rej, total := 0, 0, 0.0
	settled := func() bool { return srv.PendingRepairs() == 0 }
	for _, ev := range goldenEvents(mode, flows, sched) {
		switch ev.kind {
		case evDeparture:
			// A rejected flow never stood; an evicted one is already gone.
			if _, err := srv.Release(ids[ev.idx]); err != nil && !errors.Is(err, server.ErrNotFound) {
				t.Fatal(err)
			}
		case evRestore:
			if _, err := srv.RestoreFault(ev.fault); err != nil {
				t.Fatal(err)
			}
			waitFor(t, settled)
		case evStrike:
			if _, err := srv.ApplyFault(ev.fault); err != nil {
				t.Fatal(err)
			}
			waitFor(t, settled)
		case evArrival:
			req := flows[ev.idx].req
			req.Alg = alg
			info, err := srv.Submit(ctx, req)
			switch {
			case err == nil:
				acc++
				ids[ev.idx], costs[ev.idx] = info.ID, info.Cost.Total
				total += info.Cost.Total
			case errors.Is(err, core.ErrNoEmbedding):
				rej++
			default:
				t.Fatalf("request %d: %v", ev.idx, err)
			}
		}
	}
	if end := srv.NetworkState(); mode != "run" && (end.ActiveFlows != 0 || !end.SameResiduals(seed)) {
		t.Errorf("%s %s: %d flows active at the end, ledger at the seed: %v", alg, mode, end.ActiveFlows, end.SameResiduals(seed))
	}
	h := fnv.New64a()
	for i, c := range costs {
		fmt.Fprintf(h, "%d:%v:%x;", i, ids[i] != 0, math.Float64bits(c))
	}
	outcomes := h.Sum64()
	h.Reset()
	counts := make(map[journal.Type]int)
	log := repairOutcomes(srv)
	for _, o := range log {
		counts[o.Outcome]++
		fmt.Fprintf(h, "%d:%s:%d:%s;", o.Flow, o.Outcome, o.Attempts, o.Fault)
	}
	fs := srv.Faults()
	return goldenResult{acc, fmt.Sprintf("acc=%d rej=%d cost=%#x outcomes=%#x faults=%d/%d reval=%d rep=%d evict=%d log=%d/%#x",
		acc, rej, math.Float64bits(total), outcomes, fs.Applied, fs.Restored,
		counts[named(flowstate.Revalidate)], counts[named(flowstate.Commit)], counts[named(flowstate.Evict)], len(log), h.Sum64()), log}
}

// TestAdmissionGolden pins what the server decides, to the bit, on three
// seeded scenarios under MBBE and MINV: every flow admitted in order and
// none released ("run"), arrivals and departures ("churn"), and churn under
// a fault schedule the restore controller repairs ("failures"). The nine
// MBBE rows were re-pinned when MBBE's parallel-layer search got its
// horizon and its sense of direction, with what it accepted before kept as
// a floor: a cheaper placement holds fewer links, so acceptance may only
// rise. A failures row runs twice, and both runs must agree.
func TestAdmissionGolden(t *testing.T) {
	acceptedBefore := map[string]int{
		"seed 1 mbbe churn":    127,
		"seed 1 mbbe failures": 128,
		"seed 1 mbbe run":      38,
		"seed 2 mbbe churn":    140,
		"seed 2 mbbe failures": 138,
		"seed 2 mbbe run":      61,
		"seed 3 mbbe churn":    145,
		"seed 3 mbbe failures": 142,
		"seed 3 mbbe run":      75,
	}
	want := map[string]string{
		"seed 1 mbbe churn":    "acc=141 rej=9 cost=0x40f2b4a4e9c8e329 outcomes=0xf835ccba9c882178 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 mbbe failures": "acc=139 rej=11 cost=0x40f2a250df48ef89 outcomes=0xa4a22305126923d5 faults=25/25 reval=0 rep=22 evict=5 log=27/0x1f9b187d467affa9",
		"seed 1 mbbe run":      "acc=41 rej=109 cost=0x40d61a58efe6023d outcomes=0x203a223f6b716581 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 minv churn":    "acc=10 rej=140 cost=0x40c04a6e3eb26f1e outcomes=0xbad0aec3cd570547 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 minv failures": "acc=14 rej=136 cost=0x40c7f1c5387f1383 outcomes=0x337aec95d38839bb faults=25/25 reval=0 rep=4 evict=3 log=7/0xe1a4668feeb39b8a",
		"seed 1 minv run":      "acc=1 rej=149 cost=0x408aeaa3390f3008 outcomes=0xa82d0dc7327ba313 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 mbbe churn":    "acc=150 rej=0 cost=0x40f307e6471abe9e outcomes=0xe00ce1080654a22d faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 mbbe failures": "acc=147 rej=3 cost=0x40f2b6d0e753939e outcomes=0x1cad8b677a9235ec faults=25/25 reval=1 rep=15 evict=1 log=17/0xfbfbbe74f2cfc18d",
		"seed 2 mbbe run":      "acc=65 rej=85 cost=0x40e181a38d9ee58f outcomes=0x6b1e806ef0956a58 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv churn":    "acc=11 rej=139 cost=0x40c1b59685ac92db outcomes=0x8f289fcc5bc11775 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv failures": "acc=11 rej=139 cost=0x40c1c0e7ee435725 outcomes=0x95953a16fcaf818a faults=25/25 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv run":      "acc=1 rej=149 cost=0x4089b17dbed10f52 outcomes=0x46e982b199ca0045 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 mbbe churn":    "acc=149 rej=1 cost=0x40f2d72ead61a68a outcomes=0xb8492c9836cae58c faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 mbbe failures": "acc=148 rej=2 cost=0x40f2bdbd02f0847f outcomes=0x3ba7979923f1be2e faults=25/25 reval=1 rep=13 evict=2 log=16/0xd9f0b8a1bd88087e",
		"seed 3 mbbe run":      "acc=83 rej=67 cost=0x40e5fa0adfd1229b outcomes=0x42f0f625bfea1bc3 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 minv churn":    "acc=10 rej=140 cost=0x40c23998c6a6a364 outcomes=0xcf632781e8b100d4 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 minv failures": "acc=13 rej=137 cost=0x40c6d45e7f1bb867 outcomes=0x4b2bab9c5fbedf1a faults=25/25 reval=1 rep=4 evict=1 log=6/0xbf365742fd7ee462",
		"seed 3 minv run":      "acc=1 rej=149 cost=0x408d515b46d573d6 outcomes=0xbf4d0c9d57c7095f faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
	}
	for seed := int64(1); seed <= 3; seed++ {
		net, flows, sched := goldenScenario(seed)
		for _, alg := range []string{"mbbe", "minv"} {
			for _, mode := range []string{"run", "churn", "failures"} {
				key := fmt.Sprintf("seed %d %s %s", seed, alg, mode)
				got := goldenPlay(t, net, flows, sched, alg, mode)
				if got.fingerprint != want[key] {
					t.Errorf("%q: %q,", key, got.fingerprint)
				}
				if floor, ok := acceptedBefore[key]; ok && got.accepted < floor {
					t.Errorf("%q: accepted %d, below the %d of the search without a horizon", key, got.accepted, floor)
				}
				if mode == "failures" {
					if again := goldenPlay(t, net, flows, sched, alg, mode); !reflect.DeepEqual(got, again) {
						t.Errorf("%q: two runs diverged:\n%+v\n%+v", key, got, again)
					}
				}
			}
		}
	}
}
