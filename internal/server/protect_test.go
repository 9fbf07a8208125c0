package server_test

import (
	"context"
	"errors"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/telemetry"
)

// threePathNet offers three node-disjoint paths 0→4, each with its own
// f(1) instance, priced so the deterministic search prefers node 1, then
// node 2, then node 3. A protected flow lands its primary via node 1 and
// its backup via node 2; killing edge 0 fails it over and leaves node 3
// as the only re-protect candidate.
func threePathNet() *network.Network {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1, 10) // e0
	g.MustAddEdge(1, 4, 1, 10) // e1
	g.MustAddEdge(0, 2, 1, 10) // e2
	g.MustAddEdge(2, 4, 1, 10) // e3
	g.MustAddEdge(0, 3, 1, 10) // e4
	g.MustAddEdge(3, 4, 1, 10) // e5
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 5, 4)
	net.MustAddInstance(2, 1, 6, 4)
	net.MustAddInstance(3, 1, 7, 4)
	return net
}

func protectedRequest() server.FlowRequest {
	return server.FlowRequest{
		SFC: "1", Src: 0, Dst: 4, Rate: 1, Size: 1,
		Protection: server.ProtectionBackup,
	}
}

// flowEvents counts the journal events recorded on one flow's timeline,
// as render spells them.
func flowEvents(srv *server.Server, id int64) map[string]int {
	out := make(map[string]int)
	for _, ev := range srv.Journal().Flow(id, 0) {
		out[render(ev)]++
	}
	return out
}

func TestProtectedAdmissionReservesAndReleasesBoth(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: threePathNet(), Workers: 2})
	ctx := context.Background()
	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}

	info, err := cl.CreateFlow(ctx, protectedRequest())
	if err != nil {
		t.Fatal(err)
	}
	if info.Protection != server.ProtectionBackup || !info.BackupActive {
		t.Fatalf("protected admission info = %+v, want protection %q with an active backup",
			info, server.ProtectionBackup)
	}
	if info.BackupCost.Total <= 0 {
		t.Fatalf("backup cost %+v, want positive", info.BackupCost)
	}
	if info.BackupCost.Total <= info.Cost.Total {
		t.Fatalf("backup (cost %v) should be strictly pricier than the primary (%v): the search must prefer the cheap path for the primary",
			info.BackupCost.Total, info.Cost.Total)
	}
	if evs := flowEvents(srv, info.ID); evs["commit(protected)"] != 1 {
		t.Fatalf("journal events %v, want one protected commit", evs)
	}

	// Both placements hold ledger capacity: the primary's path and the
	// backup's path each lost the flow's rate.
	st, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	reserved := 0
	for i, l := range st.Links {
		if l.Residual != seed.Links[i].Residual {
			reserved++
		}
	}
	if reserved < 4 {
		t.Fatalf("only %d links carry reservations, want >= 4 (two disjoint paths)", reserved)
	}

	// Release returns both placements' capacity exactly.
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResiduals(residuals(after), residuals(seed)) {
		t.Fatalf("residuals after release: %v, want seed %v", residuals(after), residuals(seed))
	}
}

func TestProtectionValidation(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: threePathNet()})
	ctx := context.Background()

	req := protectedRequest()
	req.Alg = "minv" // no ban-set support
	if _, err := srv.Submit(ctx, req); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("protection with ban-incapable algorithm: err = %v, want ErrBadRequest", err)
	}
	req = protectedRequest()
	req.Protection = "triple"
	if _, err := srv.Submit(ctx, req); !errors.Is(err, server.ErrBadRequest) {
		t.Fatalf("unknown protection class: err = %v, want ErrBadRequest", err)
	}
	// "none" is explicitly allowed and means what it says.
	req = protectedRequest()
	req.Protection = server.ProtectionNone
	info, err := cl.CreateFlow(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.Protection != "" || info.BackupActive {
		t.Fatalf("protection none produced %+v, want an unprotected flow", info)
	}
}

func TestFailoverPromotesBackupAndReprotects(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: threePathNet(), Workers: 2}))
	ctx := context.Background()
	seed, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}

	info, err := cl.CreateFlow(ctx, protectedRequest())
	if err != nil {
		t.Fatal(err)
	}
	backupCost := info.BackupCost

	// Kill the primary's first hop. The backup must be promoted in place:
	// the flow never leaves the active state and never strands.
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "edge-down", Link: 0}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.Flow(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != server.FlowStateActive {
		t.Fatalf("state after failover %q, want active", got.State)
	}
	if got.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", got.Failovers)
	}
	if got.Cost != backupCost {
		t.Fatalf("promoted cost %+v, want the old backup cost %+v", got.Cost, backupCost)
	}

	// The restore controller reserves a fresh backup on the remaining path
	// in the background; GET /v1/faults reports its backlog draining.
	waitFor(t, func() bool {
		f, err := cl.Flow(ctx, info.ID)
		st, serr := cl.Faults(ctx)
		return err == nil && serr == nil && f.BackupActive && st.PendingRepairs == 0
	})
	got, err = cl.Flow(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.BackupCost.Total <= got.Cost.Total {
		t.Fatalf("re-protect backup cost %v, want pricier than the promoted primary %v (only the node-3 path remains)",
			got.BackupCost.Total, got.Cost.Total)
	}

	evs := flowEvents(srv, info.ID)
	if evs["failover(edge-down 0)"] != 1 || evs["backup"] != 1 {
		t.Fatalf("journal events %v, want exactly one failover and one backup", evs)
	}
	for ev := range evs {
		if strings.HasPrefix(ev, "strand") || strings.HasPrefix(ev, "evict") {
			t.Fatalf("journal events %v: a protected flow with a surviving backup must never strand or evict", evs)
		}
	}

	// Restore + release drains back to seed residuals exactly.
	if _, err := cl.RestoreFault(ctx, server.FaultRequest{Kind: "edge-down", Link: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	after, err := cl.Network(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !equalResiduals(residuals(after), residuals(seed)) {
		t.Fatalf("residuals after drain: %v, want seed %v", residuals(after), residuals(seed))
	}
}

func TestEvictedProtectedFlowRecordsProtectionLost(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: twoPathNet(), Workers: 2}))
	ctx := context.Background()

	info, err := cl.CreateFlow(ctx, server.FlowRequest{
		SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1,
		Protection: server.ProtectionBackup,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Kill both disjoint paths: the first fault fails the flow over, the
	// second strands it with nowhere left to repair to.
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "edge-down", Link: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "edge-down", Link: 2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		f, err := cl.Flow(ctx, info.ID)
		return err == nil && f.State == server.FlowStateEvicted && srv.PendingRepairs() == 0
	})
	got, err := cl.Flow(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cause != server.CauseProtectionLost {
		t.Fatalf("evicted cause %q, want %q (the flow held a backup and still lost both placements)",
			got.Cause, server.CauseProtectionLost)
	}
	if got.LastError == "" {
		t.Fatal("evicted tombstone lost its last_error alongside the cause")
	}
}

// TestDurableFailoverKillRestart crashes the durable server right after a
// failover, while the background re-protect is still in flight, and
// expects the recovered server to converge onto the same primary/backup
// assignment and residuals as a control server that was never killed.
func TestDurableFailoverKillRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	control, err := server.New(fastRepairs(server.Config{Net: threePathNet()}))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	cfg := fastRepairs(server.Config{Net: threePathNet(), WALDir: dir, WALSync: "commit"})
	durable, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	for _, s := range []*server.Server{control, durable} {
		if _, err := s.Submit(ctx, protectedRequest()); err != nil {
			t.Fatal(err)
		}
	}
	fault := network.Fault{Kind: network.FaultEdgeDown, Link: 0}
	if _, err := control.ApplyFault(fault); err != nil {
		t.Fatal(err)
	}
	if _, err := durable.ApplyFault(fault); err != nil {
		t.Fatal(err)
	}
	// The failover record is on stable storage (ApplyFault appends it
	// under the per-commit sync policy before returning); the re-protect
	// races the kill and may or may not have committed — recovery must
	// converge either way.
	durable.Crash()

	cfg2 := fastRepairs(server.Config{Net: threePathNet(), WALDir: dir, WALSync: "commit"})
	srv2, err := server.New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	for _, s := range []*server.Server{control, srv2} {
		s := s
		waitFor(t, func() bool {
			if s.PendingRepairs() != 0 {
				return false
			}
			flows := s.Flows()
			return len(flows) == 1 && flows[0].BackupActive
		})
	}

	got, want := srv2.Flows(), control.Flows()
	sort.Slice(got, func(i, k int) bool { return got[i].ID < got[k].ID })
	sort.Slice(want, func(i, k int) bool { return want[i].ID < want[k].ID })
	if len(got) != len(want) {
		t.Fatalf("flow count %d, want control's %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		g.Created, w.Created = time.Time{}, time.Time{}
		g.ExpiresAt, w.ExpiresAt = nil, nil
		if g != w {
			t.Fatalf("flow %d diverged from control after kill-restart:\ngot:  %+v\nwant: %+v", w.ID, g, w)
		}
	}
	if gr, wr := residuals(srv2.NetworkState()), residuals(control.NetworkState()); !equalResiduals(gr, wr) {
		t.Fatalf("residuals after kill-restart: %v, want control %v", gr, wr)
	}
}

// TestBackupRefusalSaysWhichKind: a protected admission the substrate cannot
// protect is refused unsearched and says why — the endpoints share a single
// link-disjoint route — while one the two-pass search fails on (the only
// host of f(1) sits on the primary's path, though source and destination
// are joined three times over) keeps the search's text. Both are 422, both
// count as backup admission failures, and only the first as unprotectable.
func TestBackupRefusalSaysWhichKind(t *testing.T) {
	counters := func(cl *client.Client) (failures, unprotectable float64) {
		t.Helper()
		snap, err := cl.MetricsSnapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		f, okF := snap.Series(telemetry.MetricProtectBackupAdmitFailure)
		u, okU := snap.Series(telemetry.MetricProtectUnprotectable)
		if !okF || !okU {
			t.Fatal("protection counters not exposed")
		}
		return f.Value, u.Value
	}
	refusal := func(err error) string {
		t.Helper()
		var api *client.APIError
		if !errors.As(err, &api) || api.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("err = %v, want a 422", err)
		}
		return api.Message
	}
	doneDetail := func(srv *server.Server, id int64) string {
		t.Helper()
		detail := ""
		for _, ev := range srv.Journal().Flow(id, 0) {
			if ev.Type == journal.TypeEmbedDone && ev.Err != "" {
				detail = ev.Detail
			}
		}
		return detail
	}

	// A stub: node 5 hangs off node 4 by one link.
	stub := threePathNet()
	g := graph.New(6)
	for _, e := range stub.G.Edges() {
		g.MustAddEdge(e.A, e.B, e.Price, e.Capacity)
	}
	g.MustAddEdge(4, 5, 1, 10)
	stubNet := network.New(g, network.Catalog{N: 1})
	stubNet.MustAddInstance(1, 1, 5, 4)
	stubNet.MustAddInstance(2, 1, 6, 4)
	srv, cl := newTestServer(t, server.Config{Net: stubNet})
	failures, unprotectable := counters(cl)
	req := protectedRequest()
	req.Dst = 5
	_, err := cl.CreateFlow(context.Background(), req)
	if msg := refusal(err); !strings.Contains(msg, "endpoints are not 2-edge-connected") || strings.Contains(msg, "no disjoint backup placement") {
		t.Fatalf("refusal %q, want the endpoints named", msg)
	}
	if f, u := counters(cl); f != failures+1 || u != unprotectable+1 {
		t.Fatalf("counters moved by %v and %v, want 1 and 1", f-failures, u-unprotectable)
	}
	if detail := doneDetail(srv, 1); detail != "backup: unprotectable" {
		t.Fatalf("journal detail %q, want the refusal named", detail)
	}
	// The same endpoints unprotected are served.
	req.Protection = server.ProtectionNone
	if _, err := cl.CreateFlow(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	// The trap: three routes 0→4, one host.
	trap := network.New(threePathNet().G, network.Catalog{N: 1})
	trap.MustAddInstance(1, 1, 5, 4)
	srv, cl = newTestServer(t, server.Config{Net: trap})
	failures, unprotectable = counters(cl)
	_, err = cl.CreateFlow(context.Background(), protectedRequest())
	if msg := refusal(err); !strings.Contains(msg, "no disjoint backup placement") || strings.Contains(msg, "2-edge-connected") {
		t.Fatalf("refusal %q, want the search's own", msg)
	}
	if f, u := counters(cl); f != failures+1 || u != unprotectable {
		t.Fatalf("counters moved by %v and %v, want 1 and 0", f-failures, u-unprotectable)
	}
	if detail := doneDetail(srv, 1); detail != "backup" {
		t.Fatalf("journal detail %q, want plain %q", detail, "backup")
	}
}
