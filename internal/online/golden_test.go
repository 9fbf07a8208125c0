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
	sched, err := faults.Generate(faults.GenConfig{
		Nodes: net.G.NumNodes(), Edges: net.G.NumEdges(), Count: 25,
		MeanGap: 3, MeanHold: 8, NodeFrac: 0.2, DegradeFrac: 0.3, HardFrac: 0.4,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return net, reqs, sched
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
// became one driver over flowstate.Apply.
func TestOnlineGolden(t *testing.T) {
	want := map[string]string{
		"seed 1 mbbe churn":    "acc=127 rej=23 cf=0 peak=31 cost=0x40f0d2ca2ae11f5c outcomes=0xbc8c6e89b1309062 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 mbbe failures": "acc=128 rej=22 cf=0 peak=27 cost=0x40f10653633ac48e outcomes=0xd25ce83e3c7d0c42 faults=25/25 reval=0 rep=23 evict=8 log=31/0x7bf7fe0f6e4d40d6",
		"seed 1 mbbe run":      "acc=38 rej=112 cf=0 peak=0 cost=0x40d4b13b47da38c0 outcomes=0xb1746823254c2c7b faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 minv churn":    "acc=10 rej=140 cf=0 peak=4 cost=0x40c04a6e3eb26f1e outcomes=0xbad0aec3cd570547 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 1 minv failures": "acc=14 rej=136 cf=0 peak=5 cost=0x40c7f1c5387f1383 outcomes=0x337aec95d38839bb faults=25/25 reval=0 rep=4 evict=3 log=7/0xb270cc6c962f725c",
		"seed 1 minv run":      "acc=1 rej=149 cf=0 peak=0 cost=0x408aeaa3390f3008 outcomes=0xa82d0dc7327ba313 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 mbbe churn":    "acc=140 rej=10 cf=0 peak=29 cost=0x40f237dd5d4fec0f outcomes=0xdfd248ec44a14641 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 mbbe failures": "acc=138 rej=12 cf=0 peak=31 cost=0x40f1eb9cb2a56ccd outcomes=0x4bd29932f494b6b5 faults=25/25 reval=0 rep=11 evict=1 log=12/0x66deae0ededdc40d",
		"seed 2 mbbe run":      "acc=61 rej=89 cf=0 peak=0 cost=0x40e07dccb28af119 outcomes=0xc7b5ef40fd44b0fd faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv churn":    "acc=11 rej=139 cf=0 peak=2 cost=0x40c1b59685ac92db outcomes=0x8f289fcc5bc11775 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv failures": "acc=11 rej=139 cf=0 peak=2 cost=0x40c1c0e7ee435725 outcomes=0x95953a16fcaf818a faults=25/25 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 2 minv run":      "acc=1 rej=149 cf=0 peak=0 cost=0x4089b17dbed10f52 outcomes=0x46e982b199ca0045 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 mbbe churn":    "acc=145 rej=5 cf=0 peak=31 cost=0x40f2ab8030331146 outcomes=0x1f2abe9ca0c526e3 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
		"seed 3 mbbe failures": "acc=142 rej=8 cf=0 peak=30 cost=0x40f25b692c0fa604 outcomes=0xf6dce39cee6e9846 faults=25/25 reval=1 rep=15 evict=1 log=17/0x610ca747ab9b1980",
		"seed 3 mbbe run":      "acc=75 rej=75 cf=0 peak=0 cost=0x40e43eb793be0d5e outcomes=0x9caf28ca5e960207 faults=0/0 reval=0 rep=0 evict=0 log=0/0xcbf29ce484222325",
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
			}
		}
	}
}
