package main

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// flowEvent scans a flow's journal timeline for the first event of the
// given type and detail.
func flowEvent(srv *server.Server, id int64, typ journal.Type, detail string) (journal.Event, bool) {
	for _, ev := range srv.Journal().Flow(id, 0) {
		if ev.Type == typ && ev.Detail == detail {
			return ev, true
		}
	}
	return journal.Event{}, false
}

// usedEdges lists the edges whose residual sits below the seed's — with a
// single flow live on an otherwise idle server, exactly that flow's
// placement (primary plus backup, when protected).
func usedEdges(seed, st server.NetworkState) []int {
	var out []int
	for i := range st.Links {
		if st.Links[i].Residual < seed.Links[i].Residual {
			out = append(out, i)
		}
	}
	return out
}

// BenchmarkFailoverLatency prices the protection pitch on the standard
// 50-node generated network: promoting a pre-reserved backup when a link
// on the primary dies (the failover path) against re-embedding from
// scratch (the repair path an unprotected flow takes for the same
// fault). Each iteration admits one flow, discovers its placement from
// the ledger diff, kills a carried edge with edge-down, and reads the
// latency the server measured — the failover switch time, or the
// strand-to-repaired time for the baseline rounds. Both distributions
// land in the benchmark's Extra metrics, where the bench-guard enforces
// failover p99 * 3 <= repair p50.
func BenchmarkFailoverLatency(b *testing.B) {
	gen := netgen.Default()
	gen.Nodes, gen.VNFKinds = 50, 10
	nw, err := netgen.Generate(gen, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := server.New(server.Config{
		Net: nw, Seed: 1, Workers: 2,
		RepairBackoff: time.Millisecond, RepairBackoffCap: 2 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	seed := srv.NetworkState()
	rng := rand.New(rand.NewSource(2))
	cfg := sfcgen.Config{Size: 6, LayerWidth: 3, VNFKinds: 10}

	// submit admits one flow, regenerating the request until the server
	// accepts it (random src/dst pairs are not all embeddable).
	submit := func(protection string) server.FlowInfo {
		for {
			dag, err := sfcgen.Generate(cfg, rng)
			if err != nil {
				b.Fatal(err)
			}
			info, err := srv.Submit(ctx, server.FlowRequest{
				SFC: sfc.Format(dag),
				Src: rng.Intn(seed.Nodes), Dst: rng.Intn(seed.Nodes),
				Rate: 1, Size: 1, Protection: protection,
			})
			if err == nil {
				return info
			}
		}
	}
	edgeFault := func(e int) network.Fault {
		return network.Fault{Kind: network.FaultEdgeDown, Link: graph.EdgeID(e)}
	}

	// Baseline: repair rounds for unprotected flows. The sample size is
	// fixed so the baseline does not stretch with b.N.
	var repairSecs []float64
	for len(repairSecs) < 20 {
		info := submit("")
		used := usedEdges(seed, srv.NetworkState())
		f := edgeFault(used[rng.Intn(len(used))])
		if _, err := srv.ApplyFault(f); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			// The repair's latency runs from the strand to the repair's commit.
			if repaired, ok := flowEvent(srv, info.ID, evCommit, "repair"); ok {
				stranded, _ := flowEvent(srv, info.ID, journal.Type(flowstate.Strand.String()), f.String())
				repairSecs = append(repairSecs, repaired.Time.Sub(stranded.Time).Seconds())
				break
			}
			if _, evicted := flowEvent(srv, info.ID, evEvict, f.String()); evicted {
				break // nowhere to re-embed this one; not a sample
			}
			if time.Now().After(deadline) {
				b.Fatal("repair round never settled")
			}
			time.Sleep(100 * time.Microsecond)
		}
		if _, err := srv.RestoreFault(f); err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Release(info.ID); err != nil {
			b.Fatal(err)
		}
	}

	failoverSecs := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		info := submit(server.ProtectionBackup)
		// The used set covers primary and backup edges and does not say
		// which is which; killing a backup edge yields a backup loss
		// instead of a failover — restore, wait for the re-protect, and
		// try the next edge. The primary never moves on a backup loss, so
		// scanning the original used set always reaches a primary edge.
		used := usedEdges(seed, srv.NetworkState())
		sawFailover := false
		for _, e := range used {
			f := edgeFault(e)
			if _, err := srv.ApplyFault(f); err != nil {
				b.Fatal(err)
			}
			failover, ok := flowEvent(srv, info.ID, journal.Type(flowstate.Failover.String()), f.String())
			if _, err := srv.RestoreFault(f); err != nil {
				b.Fatal(err)
			}
			if ok {
				failoverSecs = append(failoverSecs, failover.Seconds)
				sawFailover = true
				break
			}
			deadline := time.Now().Add(10 * time.Second)
			for {
				if fl, live := srv.Flow(info.ID); live && fl.BackupActive {
					break
				}
				if time.Now().After(deadline) {
					b.Fatal("flow never re-protected after a backup loss")
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		if !sawFailover {
			b.Fatal("no carried edge triggered a failover")
		}
		if _, err := srv.Release(info.ID); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	sort.Float64s(failoverSecs)
	sort.Float64s(repairSecs)
	p99 := failoverSecs[min(len(failoverSecs)*99/100, len(failoverSecs)-1)]
	p50 := repairSecs[len(repairSecs)/2]
	b.ReportMetric(p99*1e6, "failover_p99_us")
	b.ReportMetric(p50*1e6, "repair_p50_us")
	b.ReportMetric(float64(len(repairSecs)), "repair_samples")
}
