package online

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dagsfc/internal/baseline"
	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfcgen"
)

// goldenScenario is one seed's tight substrate (capacity for three or four
// flows per link and instance, so rejections, stranded flows and evictions
// all occur), 150 timed requests and a fault schedule with hard edge-downs.
func goldenScenario(t testing.TB, seed int64) (*network.Network, []TimedRequest, faults.Schedule) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := netgen.Default()
	cfg.Nodes, cfg.VNFKinds, cfg.Connectivity = 45+10*int(seed), 6, 4
	cfg.LinkCapacity, cfg.InstanceCapacity = 4, 3
	net := netgen.MustGenerate(cfg, rng)
	reqs := RandomTimedRequests(net, sfcgen.Config{Size: 4, LayerWidth: 3, VNFKinds: 6}, 150, 1, 1, 0.5, 12, rng)
	return net, reqs, hardSchedule(rng, net.G.NumNodes(), net.G.NumEdges())
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

// fingerprint renders everything deterministic about a report: the
// counters, the total cost bit for bit, and hashes over every outcome
// (accepted, cost bits) and every repair-log entry.
func fingerprint(r FailureReport) string {
	h := fnv.New64a()
	for i, o := range r.Outcomes {
		fmt.Fprintf(h, "%d:%v:%x;", i, o.Accepted, math.Float64bits(o.Cost))
	}
	outcomes := h.Sum64()
	h.Reset()
	for _, rec := range r.RepairLog {
		fmt.Fprintf(h, "%x:%v:%d:%s;", math.Float64bits(rec.Time), rec.Fault, rec.Idx, rec.Outcome)
	}
	return fmt.Sprintf("acc=%d rej=%d cf=%d peak=%d cost=%#x outcomes=%#x faults=%d/%d reval=%d rep=%d evict=%d log=%d/%#x",
		r.Accepted, r.Rejected, r.CommitFailures, r.PeakActive, math.Float64bits(r.TotalCost), outcomes,
		r.FaultsApplied, r.FaultsRestored, r.Revalidated, r.Repaired, r.Evicted, len(r.RepairLog), h.Sum64())
}

// TestOnlineGolden pins what Run, RunChurn and RunFailures answer, to the
// bit, on three seeded scenarios under MBBE and MINV. The values were
// recorded from the three hand-written loops this package had before it
// became one driver over flowstate.Apply; the nine MBBE rows were re-pinned
// when MBBE's parallel-layer search got its horizon and its sense of
// direction (PR 26), with what it accepted before kept as a floor: a cheaper
// placement holds fewer links, so acceptance may only rise.
func TestOnlineGolden(t *testing.T) {
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
		"seed 1 mbbe churn":    "acc=141 rej=9 cf=0 peak=32 cost=0x40f2b4a4e9c8e329 outcomes=0xf835ccba9c882178 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 mbbe failures": "acc=139 rej=11 cf=0 peak=32 cost=0x40f2a250df48ef89 outcomes=0xa4a22305126923d5 faults=25/25 reval=0 rep=22 evict=5 log=27/0xe0aaf1fee6902de2",
		"seed 1 mbbe run":      "acc=41 rej=109 cf=0 peak=0 cost=0x40d61a58efe6023d outcomes=0x203a223f6b716581 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 minv churn":    "acc=10 rej=140 cf=0 peak=4 cost=0x40c04a6e3eb26f1e outcomes=0xbad0aec3cd570547 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 minv failures": "acc=14 rej=136 cf=0 peak=5 cost=0x40c7f1c5387f1383 outcomes=0x337aec95d38839bb faults=25/25 reval=0 rep=4 evict=3 log=7/0xb270cc6c962f725c",
		"seed 1 minv run":      "acc=1 rej=149 cf=0 peak=0 cost=0x408aeaa3390f3008 outcomes=0xa82d0dc7327ba313 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 mbbe churn":    "acc=150 rej=0 cf=0 peak=32 cost=0x40f307e6471abe9e outcomes=0xe00ce1080654a22d faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 mbbe failures": "acc=147 rej=3 cf=0 peak=32 cost=0x40f2b6d0e753939e outcomes=0x1cad8b677a9235ec faults=25/25 reval=1 rep=15 evict=1 log=17/0x2c4662d10ee5b1a5",
		"seed 2 mbbe run":      "acc=65 rej=85 cf=0 peak=0 cost=0x40e181a38d9ee58f outcomes=0x6b1e806ef0956a58 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv churn":    "acc=11 rej=139 cf=0 peak=2 cost=0x40c1b59685ac92db outcomes=0x8f289fcc5bc11775 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv failures": "acc=11 rej=139 cf=0 peak=2 cost=0x40c1c0e7ee435725 outcomes=0x95953a16fcaf818a faults=25/25 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv run":      "acc=1 rej=149 cf=0 peak=0 cost=0x4089b17dbed10f52 outcomes=0x46e982b199ca0045 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 mbbe churn":    "acc=149 rej=1 cf=0 peak=32 cost=0x40f2d72ead61a68a outcomes=0xb8492c9836cae58c faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 mbbe failures": "acc=148 rej=2 cf=0 peak=31 cost=0x40f2bdbd02f0847f outcomes=0x3ba7979923f1be2e faults=25/25 reval=1 rep=13 evict=2 log=16/0x4d264aeb2be3049e",
		"seed 3 mbbe run":      "acc=83 rej=67 cf=0 peak=0 cost=0x40e5fa0adfd1229b outcomes=0x42f0f625bfea1bc3 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 minv churn":    "acc=10 rej=140 cf=0 peak=5 cost=0x40c23998c6a6a364 outcomes=0xcf632781e8b100d4 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 minv failures": "acc=13 rej=137 cf=0 peak=4 cost=0x40c6d45e7f1bb867 outcomes=0x4b2bab9c5fbedf1a faults=25/25 reval=1 rep=4 evict=1 log=6/0xa1eeb1436744f631",
		"seed 3 minv run":      "acc=1 rej=149 cf=0 peak=0 cost=0x408d515b46d573d6 outcomes=0xbf4d0c9d57c7095f faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
	}
	embedders := []struct {
		name  string
		embed Embedder
	}{{"mbbe", core.EmbedMBBE}, {"minv", baseline.EmbedMINV}}
	for seed := int64(1); seed <= 3; seed++ {
		net, reqs, sched := goldenScenario(t, seed)
		plain := make([]Request, len(reqs))
		for i, r := range reqs {
			plain[i] = r.Request
		}
		for _, e := range embedders {
			run, err := Run(net, plain, e.embed)
			if err != nil {
				t.Fatal(err)
			}
			churn, err := RunChurn(net, reqs, e.embed)
			if err != nil {
				t.Fatal(err)
			}
			fail, err := RunFailures(net, reqs, sched, e.embed)
			if err != nil {
				t.Fatal(err)
			}
			for entry, got := range map[string]FailureReport{
				"run":      {ChurnReport: ChurnReport{Report: run}},
				"churn":    {ChurnReport: churn},
				"failures": fail,
			} {
				key := fmt.Sprintf("seed %d %s %s", seed, e.name, entry)
				if fp := fingerprint(got); fp != want[key] {
					t.Errorf("%q: %q,", key, fp)
				}
				if floor, ok := acceptedBefore[key]; ok && got.Accepted < floor {
					t.Errorf("%q: accepted %d, below the %d of the search without a horizon", key, got.Accepted, floor)
				}
			}
		}
	}
}
