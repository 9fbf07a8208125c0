package server

import (
	"context"
	"sync"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// White-box protection tests: they inspect the flow state's placements
// and hook into ApplyFault's unlocked revalidation phase, so they live
// inside the package.

// protectNet mirrors the external threePathNet fixture: three
// node-disjoint paths 0→4 with one f(1) instance each.
func protectNet() *network.Network {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 4, 1, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 4, 1, 10)
	g.MustAddEdge(0, 3, 1, 10)
	g.MustAddEdge(3, 4, 1, 10)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 5, 4)
	net.MustAddInstance(2, 1, 6, 4)
	net.MustAddInstance(3, 1, 7, 4)
	return net
}

func TestBackupDisjointFromPrimary(t *testing.T) {
	srv, err := New(Config{Net: protectNet(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	info, err := srv.Submit(context.Background(), FlowRequest{
		SFC: "1", Src: 0, Dst: 4, Rate: 1, Size: 1, Protection: ProtectionBackup,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv.mu.Lock()
	fl, ok := srv.state.Placement(info.ID)
	srv.mu.Unlock()
	backup := fl.Backup
	if !ok || backup == nil {
		t.Fatalf("flow record incomplete: live=%v backup=%v", ok, backup)
	}

	priEdges := make(map[graph.EdgeID]bool)
	fl.Primary.VisitEdges(func(e graph.EdgeID) { priEdges[e] = true })
	shared := 0
	backup.VisitEdges(func(e graph.EdgeID) {
		if priEdges[e] {
			shared++
		}
	})
	if shared != 0 {
		t.Fatalf("backup shares %d edges with the primary, want full link-disjointness", shared)
	}

	// Node-disjointness (best effort, but trivially satisfiable here):
	// no interior node of the primary may host or carry the backup.
	priNodes := make(map[graph.NodeID]bool)
	fl.Primary.VisitNodes(func(n graph.NodeID) { priNodes[n] = true })
	fl.Primary.VisitEdges(func(e graph.EdgeID) {
		ed := fl.Problem.Net.G.Edge(e)
		priNodes[ed.A], priNodes[ed.B] = true, true
	})
	delete(priNodes, 0)
	delete(priNodes, 4)
	sharedNodes := 0
	backup.VisitNodes(func(n graph.NodeID) {
		if priNodes[n] {
			sharedNodes++
		}
	})
	if sharedNodes != 0 {
		t.Fatalf("backup reuses %d interior nodes of the primary, want node-disjointness on this topology", sharedNodes)
	}
}

// TestApplyFaultRevalidationDoesNotHoldLock is the regression test for
// the fault-scan contention fix: while ApplyFault is revalidating hit
// flows against a snapshot, reads and admissions must keep flowing. The
// hook parks the revalidation mid-scan and the test drives both paths to
// completion before letting the fault finish.
func TestApplyFaultRevalidationDoesNotHoldLock(t *testing.T) {
	srv, err := New(Config{
		Net: protectNet(), Workers: 2,
		RepairRetries: 2, RepairBackoff: time.Millisecond, RepairBackoffCap: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()

	if _, err := srv.Submit(ctx, FlowRequest{
		SFC: "1", Src: 0, Dst: 4, Rate: 1, Size: 1, Protection: ProtectionBackup,
	}); err != nil {
		t.Fatal(err)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.revalHook = func(int64) {
		once.Do(func() { close(parked) })
		<-release
	}

	faultDone := make(chan error, 1)
	go func() {
		_, err := srv.ApplyFault(network.Fault{Kind: network.FaultEdgeDown, Link: 0})
		faultDone <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyFault never reached the revalidation phase")
	}

	// With the scan parked, a read and a full admission round-trip (whose
	// commit needs s.mu) must both complete.
	reads := make(chan int, 1)
	go func() { reads <- len(srv.Flows()) }()
	select {
	case n := <-reads:
		if n != 1 {
			t.Fatalf("Flows() during fault scan returned %d flows, want 1", n)
		}
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Flows() blocked behind the fault revalidation scan")
	}
	admits := make(chan error, 1)
	go func() {
		_, err := srv.Submit(ctx, FlowRequest{SFC: "1", Src: 0, Dst: 4, Rate: 1, Size: 1})
		admits <- err
	}()
	select {
	case err := <-admits:
		if err != nil {
			t.Fatalf("Submit during fault scan: %v", err)
		}
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Submit blocked behind the fault revalidation scan")
	}

	close(release)
	if err := <-faultDone; err != nil {
		t.Fatalf("ApplyFault: %v", err)
	}
}

// TestRevalidateFlowsJudgesThePair: the chaos invariant must see a backup
// that no longer fits, not only a primary. ApplyFault is parked between
// quarantining the backup's first hop and acting on it, so an active flow
// stands on a healthy primary and a dead backup: probing the primary alone
// finds nothing wrong; the verdict on the pair flags the flow. Once the fault has
// run its course — backup dropped, a fresh one armed on the third path —
// the invariant holds again.
func TestRevalidateFlowsJudgesThePair(t *testing.T) {
	srv, err := New(Config{
		Net: protectNet(), Workers: 2,
		RepairRetries: 2, RepairBackoff: time.Millisecond, RepairBackoffCap: 4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	info, err := srv.Submit(context.Background(), FlowRequest{
		SFC: "1", Src: 0, Dst: 4, Rate: 1, Size: 1, Protection: ProtectionBackup,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad := srv.RevalidateFlows(); len(bad) != 0 {
		t.Fatalf("flows %v fail revalidation before any fault", bad)
	}

	parked := make(chan struct{})
	release := make(chan struct{})
	srv.revalHook = func(int64) {
		close(parked)
		<-release
	}
	faultDone := make(chan error, 1)
	go func() {
		_, err := srv.ApplyFault(network.Fault{Kind: network.FaultEdgeDown, Link: 2}) // the backup's first hop
		faultDone <- err
	}()
	select {
	case <-parked:
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyFault never reached the revalidation phase")
	}

	srv.mu.Lock()
	pl, ok := srv.state.Placement(info.ID)
	probe := *pl.Problem
	probe.Ledger = srv.state.Snapshot()
	srv.mu.Unlock()
	if !ok || pl.Backup == nil {
		t.Fatal("the flow lost its placements before the verdict was applied")
	}
	if err := core.Release(&probe, pl.Primary); err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(&probe, pl.Primary); err != nil {
		t.Fatalf("the primary alone should still validate: %v", err)
	}
	if bad := srv.RevalidateFlows(); len(bad) != 1 || bad[0] != info.ID {
		t.Fatalf("RevalidateFlows() = %v with the backup quarantined, want [%d]", bad, info.ID)
	}

	close(release)
	if err := <-faultDone; err != nil {
		t.Fatalf("ApplyFault: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.PendingRepairs() > 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if bad := srv.RevalidateFlows(); len(bad) != 0 {
		t.Fatalf("flows %v fail revalidation after the backup was replaced", bad)
	}
}
