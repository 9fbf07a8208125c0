package server

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dagsfc/internal/core"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// White-box durability tests: they reach the server's wal.Log to stand in
// for the disk, which the typed client and the exported API cannot.

// ampleLine is a three-node line with one VNF in the middle and room for
// every flow these tests admit at once.
func ampleLine() *network.Network {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 1000)
	g.MustAddEdge(1, 2, 1, 1000)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 10, 1000)
	return net
}

func stateResiduals(st NetworkState) []float64 {
	out := make([]float64, 0, len(st.Links)+len(st.Instances))
	for _, l := range st.Links {
		out = append(out, l.Residual)
	}
	for _, i := range st.Instances {
		out = append(out, i.Residual)
	}
	return out
}

func metricValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, fam := range telemetry.Default().Snapshot().Families {
		if fam.Name == name && len(fam.Series) == 1 {
			return fam.Series[0].Value
		}
	}
	t.Fatalf("metric %s not exposed", name)
	return 0
}

// TestBrokenWALDegradesHonestly: an fsync failure surfaces after the
// commit lock is released, in the acknowledgment's wait. The server keeps
// serving from memory — and says so: the latch sets, dagsfc_wal_broken and
// dagsfc_wal_errors_total move, /healthz answers 503 "wal broken", no
// further record is written, and the ledger still balances to the seed.
func TestBrokenWALDegradesHonestly(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(Config{Net: ampleLine(), WALDir: dir, WALSync: "commit"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	health := func() (int, string) {
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	ctx := context.Background()
	seed := stateResiduals(srv.NetworkState())
	req := FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 0.25, Size: 1}

	healthy, err := srv.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if code, body := health(); code != http.StatusOK {
		t.Fatalf("healthy server: /healthz %d %q", code, body)
	}
	if metricValue(t, telemetry.MetricWALBroken) != 0 {
		t.Fatal("dagsfc_wal_broken set on a healthy server")
	}
	errorsBefore := metricValue(t, telemetry.MetricWALErrors)

	srv.wal.SetSyncFunc(func(*os.File) error { return errors.New("injected: disk gone") })
	degraded, err := srv.Submit(ctx, req)
	if err != nil {
		t.Fatalf("a broken WAL must not fail admissions: %v", err)
	}
	if !srv.walBroken.Load() {
		t.Fatal("failed fsync did not latch walBroken")
	}
	if got := metricValue(t, telemetry.MetricWALBroken); got != 1 {
		t.Fatalf("dagsfc_wal_broken = %v, want 1", got)
	}
	if got := metricValue(t, telemetry.MetricWALErrors) - errorsBefore; got != 1 {
		t.Fatalf("dagsfc_wal_errors_total moved by %v, want 1", got)
	}
	if code, body := health(); code != http.StatusServiceUnavailable || !strings.Contains(body, "wal broken") {
		t.Fatalf("degraded server: /healthz %d %q, want 503 wal broken", code, body)
	}

	// Still serving, from memory, without touching the log again.
	appends := srv.walAppends.Load()
	third, err := srv.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{healthy.ID, degraded.ID, third.ID} {
		if _, err := srv.Release(id); err != nil {
			t.Fatalf("release %d on a degraded server: %v", id, err)
		}
	}
	if got := srv.walAppends.Load(); got != appends {
		t.Fatalf("degraded server enqueued %d more WAL records", got-appends)
	}
	if got := stateResiduals(srv.NetworkState()); !slices.Equal(got, seed) {
		t.Fatalf("ledger after a degraded commit/release cycle: %v, want seed %v", got, seed)
	}
	if n := srv.ActiveFlows(); n != 0 {
		t.Fatalf("%d flows left active", n)
	}
}

// TestUnencodableRecordBreaksWAL: a transition that applied but whose
// record cannot be encoded latches the WAL broken instead of going unlogged
// as if it changed nothing durable — a replay without it would rebuild
// another state. The admission path refuses such a cost before it commits
// (TestDurableOverflowingCostRefused), so the transition is put together by
// hand.
func TestUnencodableRecordBreaksWAL(t *testing.T) {
	srv, err := New(Config{Net: ampleLine(), WALDir: t.TempDir(), WALSync: "commit"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	p := &core.Problem{Net: srv.net, SFC: sfc.FromChain([]network.VNFID{1}), Src: 0, Dst: 2, Rate: 0.25, Size: 1}
	res, err := core.EmbedMBBE(p)
	if err != nil {
		t.Fatal(err)
	}
	srv.mu.Lock()
	_, ticket, err := srv.transitLocked(flowstate.Transition{
		Kind: flowstate.Commit, Flow: 1, Problem: p, Primary: res.Solution,
		Info: FlowInfo{ID: 1, SFC: "1", Dst: 2, Rate: 0.25, Size: 1, Cost: Cost{Total: math.Inf(1)}, State: FlowStateActive},
	})
	srv.mu.Unlock()
	if err != nil || ticket != 0 {
		t.Fatalf("transitLocked = ticket %d, %v; want the transition applied and nothing logged", ticket, err)
	}
	if !srv.walBroken.Load() {
		t.Fatal("an unencodable record did not latch walBroken")
	}
}

// ack is one response a client received, stamped with how much of the log
// was on stable storage when it arrived.
type ack struct {
	kind      string // "created", "released" or "rejected"
	id        int64
	watermark int64
}

// TestDurableCrashAtEveryFrameBoundary is the group-commit counterpart of
// TestDurableCrashMatchesControl: four concurrent clients create, release
// and get rejected against a durable server whose disk is watched, then
// the recorded log is cut at every frame boundary — each a state the disk
// could have been left in — and recovered. For every cut: the recovered
// ledger is exactly the cut's commits minus its releases (no commit is
// half-applied), every response that arrived while the log was durable up
// to the cut is honoured (created flows exist unless a release precedes
// the cut, released flows are gone), and ID allocation resumes above every
// ID such a response or rejection exposed.
func TestDurableCrashAtEveryFrameBoundary(t *testing.T) {
	const clients, perClient = 4, 8
	dir := t.TempDir()
	cfg := Config{WALSync: "commit", WALSnapshotEvery: -1, Workers: clients}
	live := cfg
	live.Net, live.WALDir = ampleLine(), dir
	srv, err := New(live)
	if err != nil {
		t.Fatal(err)
	}
	// durable is the size the segment had when the newest finished fsync
	// began: every byte below it is on stable storage.
	var durable atomic.Int64
	srv.wal.SetSyncFunc(func(f *os.File) error {
		st, err := f.Stat()
		if err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		for {
			old := durable.Load()
			if st.Size() <= old || durable.CompareAndSwap(old, st.Size()) {
				return nil
			}
		}
	})

	ctx := context.Background()
	var mu sync.Mutex
	var acks []ack
	record := func(kind string, id int64) {
		w := durable.Load()
		mu.Lock()
		acks = append(acks, ack{kind, id, w})
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Non-dyadic rates, so a half-applied commit cannot hide in
				// a rounding coincidence.
				info, err := srv.Submit(ctx, FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 0.1 + 0.07*float64(c) + 0.013*float64(i), Size: 1})
				if err != nil {
					t.Errorf("client %d: submit: %v", c, err)
					return
				}
				record("created", info.ID)
				if i%2 == 1 {
					if _, err := srv.Release(info.ID); err != nil {
						t.Errorf("client %d: release: %v", c, err)
						return
					}
					record("released", info.ID)
				}
				if c == 0 && i%3 == 0 {
					// More than the substrate holds: rejected after admission,
					// so the ID it used exists only in its admit record.
					if _, err := srv.Submit(ctx, FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 5000, Size: 1}); !errors.Is(err, core.ErrNoEmbedding) {
						t.Errorf("oversized request: %v, want ErrNoEmbedding", err)
						return
					}
					// Only this client is ever rejected, one request at a
					// time: the newest rejection in the journal is this one.
					evs, _, _ := srv.journal.Since(0, 1<<20)
					var id int64
					for _, ev := range evs {
						if ev.Type == journal.TypeRejected {
							id = ev.Flow
						}
					}
					record("rejected", id)
				}
			}
		}(c)
	}
	wg.Wait()
	srv.Crash()
	if t.Failed() {
		return
	}

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want the whole run in one segment, got %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries from the length prefixes (wal/record.go: 4-byte body
	// length, 4-byte CRC, body).
	cuts := []int{0}
	for off := 0; off+8 <= len(data); {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
		if off > len(data) {
			break // frames the crash left unflushed mid-write
		}
		cuts = append(cuts, off)
	}
	if got := int64(cuts[len(cuts)-1]); got < durable.Load() {
		t.Fatalf("log holds %d whole-frame bytes, but %d were reported durable", got, durable.Load())
	}
	t.Logf("%d acknowledgments, %d frames, %d bytes durable of %d", len(acks), len(cuts)-1, durable.Load(), len(data))

	for _, cut := range cuts {
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		// What the prefix says, replayed by hand on a fresh ledger.
		wlog, rec, err := wal.Open(cutDir, wal.Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wlog.Abandon()
		net := ampleLine()
		want := network.NewLedger(net)
		committed := map[int64]bool{}
		standing := map[int64]flowstate.Transition{}
		var highest int64
		for _, r := range rec.Tail {
			highest = max(highest, r.Flow)
			switch r.Type {
			case wal.TypeCommit:
				wf, err := flowstate.Decode(net, r)
				if err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				if _, err := core.Commit(flowProblem(want, wf), wf.Primary); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				committed[r.Flow], standing[r.Flow] = true, wf
			case wal.TypeRelease:
				wf := standing[r.Flow]
				if err := core.Release(flowProblem(want, wf), wf.Primary); err != nil {
					t.Fatalf("cut %d: %v", cut, err)
				}
				delete(standing, r.Flow)
			}
		}

		recovered := cfg
		recovered.Net, recovered.WALDir = net, cutDir
		srv2, err := New(recovered)
		if err != nil {
			t.Fatalf("cut %d: recovery: %v", cut, err)
		}
		got := srv2.NetworkState()
		for _, l := range got.Links {
			if l.Residual != want.EdgeResidual(graph.EdgeID(l.ID)) {
				t.Fatalf("cut %d: link %d residual %v, the prefix's flows leave %v", cut, l.ID, l.Residual, want.EdgeResidual(graph.EdgeID(l.ID)))
			}
		}
		for _, in := range got.Instances {
			if w := want.InstanceResidual(graph.NodeID(in.Node), network.VNFID(in.VNF)); in.Residual != w {
				t.Fatalf("cut %d: instance f(%d)@%d residual %v, the prefix's flows leave %v", cut, in.VNF, in.Node, in.Residual, w)
			}
		}
		if len(srv2.Flows()) != len(standing) {
			t.Fatalf("cut %d: recovered %d flows, the prefix leaves %d", cut, len(srv2.Flows()), len(standing))
		}
		for _, a := range acks {
			if a.watermark > int64(cut) {
				continue // answered after this cut's crash: never happened
			}
			_, present := srv2.Flow(a.id)
			switch {
			case a.kind == "created" && !committed[a.id]:
				t.Fatalf("cut %d: flow %d was acknowledged with %d bytes durable, but its commit is not in the prefix", cut, a.id, a.watermark)
			case a.kind == "released" && present:
				t.Fatalf("cut %d: flow %d's release was acknowledged with %d bytes durable, but it came back", cut, a.id, a.watermark)
			}
			if next := srv2.nextID.Load(); next < a.id {
				t.Fatalf("cut %d: allocation resumes at %d, below ID %d that a %s response exposed", cut, next+1, a.id, a.kind)
			}
		}
		if next := srv2.nextID.Load(); next != highest {
			t.Fatalf("cut %d: allocation resumes after %d, the prefix's highest ID is %d", cut, next, highest)
		}
		srv2.Crash()
	}
}

// flowProblem binds a decoded commit's problem to ledger.
func flowProblem(ledger *network.Ledger, commit flowstate.Transition) *core.Problem {
	p := *commit.Problem
	p.Ledger = ledger
	return &p
}
