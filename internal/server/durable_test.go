package server_test

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// durableServer starts a server over dir with the per-commit sync policy
// (the mode the recovery guarantees are stated for) and the caller's
// tweaks applied.
func durableServer(t *testing.T, dir string, tweak func(*server.Config)) *server.Server {
	t.Helper()
	cfg := server.Config{Net: tinyNet(), WALDir: dir, WALSync: "commit"}
	if tweak != nil {
		tweak(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// sameFlows compares the durable identity of two flow listings: every
// field a restart must preserve. Created survives the JSON round trip to
// the nanosecond but loses its monotonic reading, so it is compared with
// Equal rather than ==.
func sameFlows(t *testing.T, got, want []server.FlowInfo) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("flow count %d, want %d\ngot:  %+v\nwant: %+v", len(got), len(want), got, want)
	}
	sort.Slice(got, func(i, k int) bool { return got[i].ID < got[k].ID })
	sort.Slice(want, func(i, k int) bool { return want[i].ID < want[k].ID })
	for i := range want {
		g, w := got[i], want[i]
		same := g.ID == w.ID && g.SFC == w.SFC && g.Src == w.Src && g.Dst == w.Dst &&
			g.Rate == w.Rate && g.Size == w.Size && g.Alg == w.Alg &&
			g.Cost == w.Cost && g.State == w.State && g.Repairs == w.Repairs &&
			g.LastError == w.LastError && g.Created.Equal(w.Created) &&
			g.Protection == w.Protection && g.BackupActive == w.BackupActive &&
			g.BackupCost == w.BackupCost && g.Failovers == w.Failovers &&
			g.Cause == w.Cause
		if same {
			switch {
			case g.ExpiresAt == nil && w.ExpiresAt == nil:
			case g.ExpiresAt != nil && w.ExpiresAt != nil && g.ExpiresAt.Equal(*w.ExpiresAt):
			default:
				same = false
			}
		}
		if !same {
			t.Fatalf("flow %d diverged after restart:\ngot:  %+v\nwant: %+v", w.ID, g, w)
		}
	}
}

// TestDurableDrainRestart is the graceful path: a drained server's final
// snapshot alone rebuilds the flow table and the ledger residuals
// exactly.
func TestDurableDrainRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv := durableServer(t, dir, nil)
	var infos []server.FlowInfo
	for _, rate := range []float64{0.1, 0.3, 0.25} { // non-dyadic rates stress float exactness
		info, err := srv.Submit(ctx, lineRequest(rate))
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, info)
	}
	if _, err := srv.Release(infos[1].ID); err != nil {
		t.Fatal(err)
	}
	want := srv.Flows()
	wantRes := residuals(srv.NetworkState())
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := durableServer(t, dir, nil)
	defer srv2.Close()
	sameFlows(t, srv2.Flows(), want)
	if got := residuals(srv2.NetworkState()); !equalResiduals(got, wantRes) {
		t.Fatalf("residuals after restart: %v, want %v", got, wantRes)
	}
	if srv2.ActiveFlows() != 2 {
		t.Fatalf("active flows after restart: %d, want 2", srv2.ActiveFlows())
	}

	// ID allocation resumes above the high-water mark: no recycled IDs.
	info, err := srv2.Submit(ctx, lineRequest(0.2))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID <= infos[2].ID {
		t.Fatalf("post-restart ID %d not above pre-restart high water %d", info.ID, infos[2].ID)
	}
}

// crashOp is one step of a crash workload: a flow arrival, or the
// departure of the live flow in slot release (modulo the live count, in
// arrival order), so both runs release the same flow whenever their live
// sets agree.
type crashOp struct {
	submit  *server.FlowRequest
	release int
}

// runOps applies ops to srv, keeping the live flow IDs in arrival order.
// A rejection is part of the workload: both runs see the same ones.
func runOps(srv *server.Server, ops []crashOp, live *[]int64) {
	for _, op := range ops {
		if op.submit != nil {
			if info, err := srv.Submit(context.Background(), *op.submit); err == nil {
				*live = append(*live, info.ID)
			}
			continue
		}
		if len(*live) == 0 {
			continue
		}
		i := op.release % len(*live)
		if _, err := srv.Release((*live)[i]); err == nil {
			*live = append((*live)[:i], (*live)[i+1:]...)
		}
	}
}

// lineOps is five non-dyadic line flows (float exactness under stress) and
// the departure of the second.
func lineOps() []crashOp {
	var ops []crashOp
	for _, rate := range []float64{0.1, 0.3, 0.25, 0.05, 0.125} {
		req := lineRequest(rate)
		ops = append(ops, crashOp{submit: &req})
	}
	return append(ops, crashOp{release: 1})
}

// generatedNet is the 50-node, 10-kind substrate netgen draws from seed 1.
func generatedNet() *network.Network {
	cfg := netgen.Default()
	cfg.Nodes, cfg.VNFKinds = 50, 10
	return netgen.MustGenerate(cfg, rand.New(rand.NewSource(1)))
}

// churnOps is 24 seeded arrivals of size-3, width-3 DAG-SFCs on
// generatedNet, half of them asking for a backup, each followed by a
// departure with probability 0.35.
func churnOps() []crashOp {
	rng := rand.New(rand.NewSource(1))
	var ops []crashOp
	for i := 0; i < 24; i++ {
		dag := sfcgen.MustGenerate(sfcgen.Config{Size: 3, LayerWidth: 3, VNFKinds: 10}, rng)
		req := server.FlowRequest{SFC: sfc.Format(dag), Src: rng.Intn(50), Dst: rng.Intn(50), Rate: 1, Size: 1}
		if rng.Float64() < 0.5 {
			req.Protection = server.ProtectionBackup
		}
		ops = append(ops, crashOp{submit: &req})
		if rng.Float64() < 0.35 {
			ops = append(ops, crashOp{release: rng.Intn(1 << 30)})
		}
	}
	return ops
}

// TestDurableCrashMatchesControl is the headline guarantee: a server
// killed without any shutdown courtesy (Crash: no final snapshot, no
// flush) and restarted over its WAL to finish the workload ends in the
// same state — flow for flow, residual for residual, bit for bit — as a
// control server that ran the identical workload and was never killed.
// The churn case kills before every op in turn; with its protected flows
// and a snapshot every 8 records, the kills cross snapshot generations and
// backup reservations.
func TestDurableCrashMatchesControl(t *testing.T) {
	cases := []struct {
		name    string
		net     func() *network.Network
		ops     []crashOp
		every   int  // WALSnapshotEvery
		everyOp bool // kill before every op but the first, not after the last
	}{
		{"line", tinyNet, lineOps(), 0, false},
		{"churn", generatedNet, churnOps(), 8, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			control, err := server.New(server.Config{Net: tc.net(), Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer control.Close()
			var live []int64
			runOps(control, tc.ops, &live)
			want, wantRes := control.Flows(), residuals(control.NetworkState())
			if len(want) == 0 {
				t.Fatal("the control kept no flow: nothing to compare")
			}

			kills := []int{len(tc.ops)}
			if tc.everyOp {
				kills = kills[:0]
				for k := 1; k < len(tc.ops); k++ {
					kills = append(kills, k)
				}
			}
			t.Logf("%d ops, %d kill points, %d flows in the control's table", len(tc.ops), len(kills), len(want))
			for _, k := range kills {
				cfg := server.Config{Net: tc.net(), Seed: 1, WALDir: t.TempDir(), WALSync: "commit", WALSnapshotEvery: tc.every}
				durable, err := server.New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				live = live[:0]
				runOps(durable, tc.ops[:k], &live)
				durable.Crash()
				restarted, err := server.New(cfg)
				if err != nil {
					t.Fatalf("kill before op %d: recovery: %v", k, err)
				}
				runOps(restarted, tc.ops[k:], &live)
				// The two servers ran at different wall times, so timestamps
				// cannot match; everything else must, exactly.
				got := restarted.Flows()
				if len(got) != len(want) {
					t.Fatalf("kill before op %d: flow count %d, want control's %d", k, len(got), len(want))
				}
				sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
				sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
				for i := range want {
					g, w := got[i], want[i]
					g.Created, w.Created = time.Time{}, time.Time{}
					g.ExpiresAt, w.ExpiresAt = nil, nil
					if g != w {
						t.Fatalf("kill before op %d: flow %d diverged from control:\ngot:  %+v\nwant: %+v", k, w.ID, g, w)
					}
				}
				if got := residuals(restarted.NetworkState()); !equalResiduals(got, wantRes) {
					t.Fatalf("kill before op %d: residuals after crash recovery: %v, want control %v", k, got, wantRes)
				}
				restarted.Close()
			}
		})
	}
}

// TestDurableTornTailTruncated appends garbage to the live segment —
// the shape of a record cut mid-write by a crash — and expects recovery
// to truncate it and keep everything acknowledged before it.
func TestDurableTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv := durableServer(t, dir, nil)
	for _, rate := range []float64{0.1, 0.3} {
		if _, err := srv.Submit(ctx, lineRequest(rate)); err != nil {
			t.Fatal(err)
		}
	}
	want := srv.Flows()
	wantRes := residuals(srv.NetworkState())
	srv.Crash()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v, %v", segs, err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil { // half a frame header
		t.Fatal(err)
	}
	f.Close()

	srv2 := durableServer(t, dir, nil)
	defer srv2.Close()
	sameFlows(t, srv2.Flows(), want)
	if got := residuals(srv2.NetworkState()); !equalResiduals(got, wantRes) {
		t.Fatalf("residuals after torn-tail recovery: %v, want %v", got, wantRes)
	}
}

// TestDurableCorruptSnapshotFallsBack flips a byte in the newest snapshot
// and expects recovery to fall back to the previous one plus a longer
// replay — landing on the identical state.
func TestDurableCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv := durableServer(t, dir, func(cfg *server.Config) { cfg.WALSnapshotEvery = 2 })
	for _, rate := range []float64{0.1, 0.3, 0.25, 0.05, 0.125} {
		if _, err := srv.Submit(ctx, lineRequest(rate)); err != nil {
			t.Fatal(err)
		}
	}
	want := srv.Flows()
	wantRes := residuals(srv.NetworkState())
	srv.Crash()

	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) < 2 {
		t.Fatalf("want >=2 snapshots for the fallback, got %v (%v)", snaps, err)
	}
	sort.Strings(snaps)
	newest := snaps[len(snaps)-1]
	b, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(newest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2 := durableServer(t, dir, nil)
	defer srv2.Close()
	sameFlows(t, srv2.Flows(), want)
	if got := residuals(srv2.NetworkState()); !equalResiduals(got, wantRes) {
		t.Fatalf("residuals after snapshot fallback: %v, want %v", got, wantRes)
	}
}

// TestDurableEmptyDirFreshStart: an empty (or absent) WAL directory is a
// fresh start, not an error.
func TestDurableEmptyDirFreshStart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "not-yet-created")
	srv := durableServer(t, dir, nil)
	defer srv.Close()
	if n := len(srv.Flows()); n != 0 {
		t.Fatalf("fresh server has %d flows", n)
	}
	if _, err := srv.Submit(context.Background(), lineRequest(1)); err != nil {
		t.Fatal(err)
	}
}

// TestDurableOverflowingCostRefused: a finite size at which the eq. (1)
// cost of a placement could overflow to +Inf is a 400 naming the size, for
// a chain and a hybrid alike, before any search — never a 422 "no feasible
// embedding" that would charge the breaker — and reserves nothing.
// Committed, such a cost could be neither answered (a 500 after the commit),
// listed (every GET /v1/flows a 500) nor logged: the commit record was
// skipped and the next snapshot latched the WAL broken, so the flows
// answered 201 after it did not survive a restart.
func TestDurableOverflowingCostRefused(t *testing.T) {
	dir := t.TempDir()
	// tinyNet's line, with what "1;2,3;4" needs besides: f2, f3 and the
	// merger beside f1 on node 1, f4 on node 2.
	hybridNet := func() *network.Network {
		g := graph.New(3)
		g.MustAddEdge(0, 1, 1, 100)
		g.MustAddEdge(1, 2, 1, 100)
		net := network.New(g, network.Catalog{N: 4})
		net.MustAddInstance(1, 1, 10, 2)
		net.MustAddInstance(1, 2, 10, 2)
		net.MustAddInstance(1, 3, 10, 2)
		net.MustAddInstance(1, net.Catalog.Merger(), 10, 2)
		net.MustAddInstance(2, 4, 10, 2)
		return net
	}
	tweak := func(c *server.Config) { c.WALSnapshotEvery, c.Net = 2, hybridNet() }
	srv := durableServer(t, dir, tweak)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	hc := hs.Client()
	seed := residuals(srv.NetworkState())
	get := func(path string) int {
		t.Helper()
		resp, err := hc.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	for _, shape := range []string{"1", "1;2,3;4"} {
		for _, alg := range []string{"mbbe", "bbe"} {
			body := fmt.Sprintf(`{"sfc":%q,"src":0,"dst":2,"rate":0.001,"size":1e308,"alg":%q}`, shape, alg)
			status, msg, _ := post(t, hc, hs.URL+"/v1/flows", []byte(body))
			if status != http.StatusBadRequest || !strings.Contains(msg, "flow size 1e+308 is too large") {
				t.Errorf("%s under %s with an overflowing cost: %d %q, want 400 naming the size", shape, alg, status, msg)
			}
		}
	}
	if n := srv.ActiveFlows(); n != 0 || !equalResiduals(residuals(srv.NetworkState()), seed) {
		t.Fatalf("refused flow left %d active flows or reservations behind", n)
	}
	cl := client.New(hs.URL, hc)
	for _, rate := range []float64{0.1, 0.2, 0.3} {
		if _, err := cl.CreateFlow(context.Background(), lineRequest(rate)); err != nil {
			t.Fatal(err)
		}
	}
	if got := get("/v1/flows"); got != http.StatusOK {
		t.Fatalf("GET /v1/flows: %d", got)
	}
	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("GET /healthz: %d", got)
	}
	want := srv.Flows()
	srv.Crash()

	srv2 := durableServer(t, dir, tweak)
	defer srv2.Close()
	sameFlows(t, srv2.Flows(), want)
}

// TestDurableRefusesUnrecoverableDir: a directory whose every snapshot is
// corrupt and whose log is gone cannot be rebuilt; the server must refuse
// to start rather than silently open empty.
func TestDurableRefusesUnrecoverableDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000010.snap"), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := server.New(server.Config{Net: tinyNet(), WALDir: dir})
	if err == nil {
		t.Fatal("New succeeded on an unrecoverable WAL dir")
	}
	if !strings.Contains(err.Error(), "WAL dir") {
		t.Fatalf("error does not name the WAL dir: %v", err)
	}
}

// TestDurableExpiredWhileDownReleased: a TTL that fires while the server
// is down releases the flow during recovery — it is never resurrected
// past its deadline.
func TestDurableExpiredWhileDownReleased(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv := durableServer(t, dir, nil)
	seed := residuals(srv.NetworkState())
	req := lineRequest(1)
	req.TTLSeconds = 0.05
	info, err := srv.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.ExpiresAt == nil {
		t.Fatalf("TTL flow has no deadline: %+v", info)
	}
	srv.Crash() // before the wheel fires

	time.Sleep(80 * time.Millisecond) // the deadline passes while "down"

	srv2 := durableServer(t, dir, nil)
	defer srv2.Close()
	waitFor(t, func() bool {
		_, ok := srv2.Flow(info.ID)
		return !ok
	})
	if got := residuals(srv2.NetworkState()); !equalResiduals(got, seed) {
		t.Fatalf("residuals after expired-while-down release: %v, want seed %v", got, seed)
	}

	// And durably gone: a second restart must not resurrect it either.
	srv2.Crash()
	srv3 := durableServer(t, dir, nil)
	defer srv3.Close()
	if _, ok := srv3.Flow(info.ID); ok {
		t.Fatal("expired flow resurrected by the second restart")
	}
}

// TestDurableFaultAndTombstoneSurviveCrash: the fault quarantine and an
// evicted flow's tombstone both survive a crash, and restoring the fault
// on the recovered server drains the ledger to the seed.
func TestDurableFaultAndTombstoneSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	srv := durableServer(t, dir, func(cfg *server.Config) { *cfg = fastRepairs(*cfg) })
	seed := residuals(srv.NetworkState())
	info, err := srv.Submit(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// The only path dies; the flow has no repair target and is evicted.
	if _, err := srv.ApplyFault(network.Fault{Kind: network.FaultLinkDown, Link: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, ok := srv.Flow(info.ID)
		return ok && got.State == server.FlowStateEvicted
	})
	want := srv.Flows()
	wantRes := residuals(srv.NetworkState())
	srv.Crash()

	srv2 := durableServer(t, dir, func(cfg *server.Config) { *cfg = fastRepairs(*cfg) })
	defer srv2.Close()
	sameFlows(t, srv2.Flows(), want)
	if got := residuals(srv2.NetworkState()); !equalResiduals(got, wantRes) {
		t.Fatalf("residuals after recovery: %v, want %v", got, wantRes)
	}
	st := srv2.Faults()
	if len(st.Active) != 1 || st.Applied != 1 {
		t.Fatalf("fault table after recovery: %+v", st)
	}
	if _, err := srv2.RestoreFault(network.Fault{Kind: network.FaultLinkDown, Link: 0}); err != nil {
		t.Fatal(err)
	}
	if got := residuals(srv2.NetworkState()); !equalResiduals(got, seed) {
		t.Fatalf("residuals after restore: %v, want seed %v", got, seed)
	}
}

// TestDurableRepairingFlowResumesAfterCrash: a flow stranded mid-repair
// (sitting out a long backoff) goes back to the repair controller on
// recovery and reaches its terminal state there.
func TestDurableRepairingFlowResumesAfterCrash(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// A backoff far longer than the test pins the flow in Repairing.
	srv := durableServer(t, dir, func(cfg *server.Config) {
		cfg.RepairRetries = 2
		cfg.RepairBackoff = time.Hour
		cfg.RepairBackoffCap = time.Hour
	})
	info, err := srv.Submit(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ApplyFault(network.Fault{Kind: network.FaultLinkDown, Link: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, ok := srv.Flow(info.ID)
		return ok && got.State == server.FlowStateRepairing
	})
	srv.Crash()

	// The restarted server repairs fast; the fault is still active after
	// replay, so the re-enqueued repair must run out and evict.
	srv2 := durableServer(t, dir, func(cfg *server.Config) { *cfg = fastRepairs(*cfg) })
	defer srv2.Close()
	waitFor(t, func() bool {
		got, ok := srv2.Flow(info.ID)
		return ok && got.State == server.FlowStateEvicted
	})
	if n := srv2.ActiveFlows(); n != 0 {
		t.Fatalf("evicted flow still counted active after recovery: %d", n)
	}
}

// TestDurableJournalSeqsNeverRepeat: journal seqs keep rising across
// crashes — one before any snapshot, and one after periodic snapshots
// recorded a seq below the last one issued — so a cursor or a log line from
// before a crash never names an event after it.
func TestDurableJournalSeqsNeverRepeat(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	var above uint64 // every seq issued so far is below it
	for life, every := range []int{-1, 4, 4} {
		srv := durableServer(t, dir, func(cfg *server.Config) { cfg.WALSnapshotEvery = every })
		for i := 0; i < 5; i++ {
			info, err := srv.Submit(ctx, lineRequest(1))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Release(info.ID); err != nil {
				t.Fatal(err)
			}
		}
		events, _, missed := srv.Journal().Since(0, 0)
		if len(events) == 0 || missed != 0 {
			t.Fatalf("life %d: %d events, %d missed", life, len(events), missed)
		}
		if first := events[0].Seq; first < above {
			t.Fatalf("life %d: first seq %d, want one above every earlier seq (< %d)", life, first, above)
		}
		above = events[len(events)-1].Seq + 1
		srv.Crash()
	}
}
