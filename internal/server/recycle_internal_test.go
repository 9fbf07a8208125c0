package server

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
)

// scribble makes l unusable as a view of anything: every link and every
// instance infinitely oversubscribed. (Infinite usage rather than NaN: a
// NaN residual fails every comparison in both directions, so it would pass
// the capacity checks it is meant to trip.)
func scribble(l *network.Ledger) {
	net := l.Network()
	for e := 0; e < net.G.NumEdges(); e++ {
		l.ReleaseEdge(graph.EdgeID(e), math.Inf(-1))
	}
	net.Instances(func(inst network.Instance) {
		l.ReleaseInstance(inst.Node, inst.VNF, math.Inf(-1))
	})
}

// TestWorkerLedgerRecycledNotRetained is the proof an embed slot may
// overwrite its ledger snapshot for the next job: two slots serve a closed
// loop of protected admissions (the one path that also writes to the
// snapshot — the primary is reserved on it before the backup search), and
// whenever a slot is given back the test scribbles over its ledger. If a committed
// solution, a transition's problem or a shared cost view still read that
// ledger, later admissions would see a dead network and the run would part
// from the unscribbled control run; under -race the scribbling would also
// be a reported data race with whoever reads.
func TestWorkerLedgerRecycledNotRetained(t *testing.T) {
	admissions := 2000
	if testing.Short() {
		admissions = 300
	}
	type outcome struct {
		cost, backup uint64 // Float64bits
		err          string
	}
	run := func(poison bool) []outcome {
		rng := rand.New(rand.NewSource(23))
		ncfg := netgen.Default()
		ncfg.Nodes = 40
		ncfg.VNFKinds = 6
		net := netgen.MustGenerate(ncfg, rng)
		srv, err := New(Config{Net: net, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		var scribbled atomic.Int64
		if poison {
			// Set before the first request; a slot runs it whenever it is
			// given back.
			srv.recycleHook = func(l *network.Ledger) {
				scribble(l)
				scribbled.Add(1)
			}
		}
		seed := srv.NetworkState()
		scfg := sfcgen.Config{Size: 4, LayerWidth: 3, VNFKinds: 6}
		ctx := context.Background()
		var standing []int64
		out := make([]outcome, 0, admissions)
		for i := 0; i < admissions; i++ {
			req := FlowRequest{
				SFC: sfc.Format(sfcgen.MustGenerate(scfg, rng)),
				Src: rng.Intn(ncfg.Nodes), Dst: rng.Intn(ncfg.Nodes),
				Rate: 1, Size: 1, Protection: ProtectionBackup,
			}
			info, err := srv.Submit(ctx, req)
			if err != nil {
				if !errors.Is(err, core.ErrNoEmbedding) {
					t.Fatalf("admission %d (poison=%v): %v", i, poison, err)
				}
				out = append(out, outcome{err: err.Error()})
				continue
			}
			out = append(out, outcome{cost: math.Float64bits(info.Cost.Total), backup: math.Float64bits(info.BackupCost.Total)})
			srv.mu.Lock()
			pl, ok := srv.state.Placement(info.ID)
			srv.mu.Unlock()
			if !ok || pl.Backup == nil {
				t.Fatalf("admission %d: committed flow %d has no standing pair", i, info.ID)
			}
			if pl.Problem.Ledger != nil {
				t.Fatalf("admission %d: the committed problem carries a ledger", i)
			}
			standing = append(standing, info.ID)
			if len(standing) > 12 {
				if _, err := srv.Release(standing[0]); err != nil {
					t.Fatal(err)
				}
				standing = standing[1:]
			}
			if i%100 == 0 {
				if bad := srv.RevalidateFlows(); len(bad) > 0 {
					t.Fatalf("admission %d: standing flows %v no longer validate", i, bad)
				}
			}
		}
		for _, id := range standing {
			if _, err := srv.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(stateResiduals(srv.NetworkState()), stateResiduals(seed)) {
			t.Fatalf("poison=%v: the ledger did not drain to seed", poison)
		}
		if err := srv.Close(); err != nil { // every slot has run its last hook
			t.Fatal(err)
		}
		if n := scribbled.Load(); poison && n < int64(admissions) {
			t.Fatalf("recycle hook ran %d times over %d admissions", n, admissions)
		}
		return out
	}
	control, poisoned := run(false), run(true)
	accepted := 0
	for i := range control {
		if control[i] != poisoned[i] {
			t.Fatalf("admission %d: %+v with the ledgers scribbled, %+v without", i, poisoned[i], control[i])
		}
		if control[i].err == "" {
			accepted++
		}
	}
	if accepted < admissions/2 {
		t.Fatalf("only %d of %d protected admissions accepted; the fixture proves little", accepted, admissions)
	}
}

// deadlineServer is a one-slot server whose "block" algorithm parks on
// gate, with the breaker armed.
func deadlineServer(t *testing.T, timeout time.Duration) (srv *Server, entered chan struct{}, gate chan struct{}) {
	t.Helper()
	entered, gate = make(chan struct{}, 1), make(chan struct{})
	srv, err := New(Config{
		Net: overflowNet(), Workers: 1, RequestTimeout: timeout,
		BreakerFailures: 1, BreakerCooldown: time.Millisecond,
		Embedders: map[string]Embedder{"block": func(p *core.Problem) (*core.Result, error) {
			entered <- struct{}{}
			<-gate
			return core.EmbedMBBE(p)
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv, entered, gate
}

// halfOpen trips srv's breaker and lets the cooldown pass, so the next
// Submit holds its probe slot.
func halfOpen(srv *Server) {
	srv.brk.record(false, false, time.Now())
	time.Sleep(5 * time.Millisecond)
}

// checkGivenUp asserts what a request abandoned at its deadline must leave
// behind: ErrTimeout to the caller, a rejected event saying so on the
// flow's timeline, the breaker's probe slot free again, and — once every
// request has answered — the ledger at seed.
func checkGivenUp(t *testing.T, srv *Server, seed NetworkState, err error) {
	t.Helper()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	id := srv.nextID.Load()
	var rejected *journal.Event
	for _, ev := range srv.journal.Flow(id, 0) {
		if ev.Type == journal.TypeRejected {
			ev := ev
			rejected = &ev
		}
	}
	if rejected == nil || rejected.Err != ErrTimeout.Error() {
		t.Fatalf("flow %d timeline has no rejected/timeout event: %+v", id, rejected)
	}
	srv.brk.mu.Lock()
	probing := srv.brk.probing
	srv.brk.mu.Unlock()
	if probing {
		t.Fatal("timed-out probe kept the breaker's half-open slot")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	st := srv.NetworkState()
	if st.ActiveFlows != 0 || !slices.Equal(stateResiduals(st), stateResiduals(seed)) {
		t.Fatalf("abandoned request mutated the ledger (%d active flows)", st.ActiveFlows)
	}
}

// TestSubmitDeadline: a request past its deadline answers ErrTimeout and
// commits nothing — at the deadline while it waits for a slot, when the
// embedder returns while it is inside one that cannot be interrupted.
func TestSubmitDeadline(t *testing.T) {
	blockReq := FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: "block"}

	t.Run("embedder outlasts RequestTimeout", func(t *testing.T) {
		srv, entered, gate := deadlineServer(t, 50*time.Millisecond)
		seed := srv.NetworkState()
		halfOpen(srv)
		go func() {
			<-entered
			time.Sleep(100 * time.Millisecond)
			close(gate)
		}()
		_, err := srv.Submit(context.Background(), blockReq)
		checkGivenUp(t, srv, seed, err)
	})

	t.Run("caller cancels mid-embed", func(t *testing.T) {
		srv, entered, gate := deadlineServer(t, time.Minute)
		seed := srv.NetworkState()
		halfOpen(srv)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-entered
			cancel()
			close(gate)
		}()
		_, err := srv.Submit(ctx, blockReq)
		checkGivenUp(t, srv, seed, err)
	})

	// mbbe polls its deadline, and so does the wait for a slot: a request
	// queued behind an embedder that will not return answers at its
	// deadline, not when the slot frees.
	t.Run("mbbe request waits for a slot past its deadline", func(t *testing.T) {
		const timeout = 50 * time.Millisecond
		srv, entered, gate := deadlineServer(t, timeout)
		seed := srv.NetworkState()
		blocked := make(chan error, 1)
		go func() { _, err := srv.Submit(context.Background(), blockReq); blocked <- err }()
		<-entered
		halfOpen(srv) // the blocked request was admitted before the trip
		begin := time.Now()
		_, err := srv.Submit(context.Background(), FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1})
		if took := time.Since(begin); took < timeout || took > 2*time.Second {
			t.Errorf("answered after %v, want at its %v deadline", took, timeout)
		}
		close(gate)
		<-blocked
		checkGivenUp(t, srv, seed, err)
	})

	// A timer that went off unobserved must not wake the next waiter: the
	// pool hands it on stopped and drained.
	t.Run("pooled timer carries nothing over", func(t *testing.T) {
		srv, _, _ := deadlineServer(t, time.Minute)
		defer srv.Close()
		w := <-srv.slots // the one slot, held by the test
		for i := 0; i < 50; i++ {
			// A free slot and an expired deadline at once: either wake-up
			// may win.
			past := &job{ctx: deadline{Context: context.Background(), at: time.Now().Add(-time.Second)}}
			srv.slots <- w
			if w = srv.waitSlot(past); w == nil {
				w = <-srv.slots
			}
			next := &job{ctx: deadline{Context: context.Background(), at: time.Now().Add(time.Minute)}}
			go func(w *workerScratch) {
				time.Sleep(time.Millisecond)
				srv.slots <- w
			}(w)
			if w = srv.waitSlot(next); w == nil {
				t.Fatalf("round %d: woken by a stale timer", i)
			}
		}
		srv.slots <- w
	})
}

// TestDeadlineContext: the value a job carries is all the builtin searches
// ask of a context.
func TestDeadlineContext(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	d := &deadline{Context: parent, at: time.Now().Add(time.Hour)}
	if err := d.Err(); err != nil {
		t.Fatalf("Err before the deadline = %v", err)
	}
	if at, ok := d.Deadline(); !ok || !at.Equal(d.at) {
		t.Fatalf("Deadline = %v, %v", at, ok)
	}
	cancel()
	if err := d.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after the parent's cancel = %v", err)
	}

	past := &deadline{Context: context.Background(), at: time.Now().Add(-time.Millisecond)}
	if err := past.Err(); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Err past the deadline = %v", err)
	}
	p := &core.Problem{Net: overflowNet(), SFC: sfc.FromChain([]network.VNFID{1}), Src: 0, Dst: 2, Rate: 1, Size: 1}
	if _, err := core.EmbedContext(past, p, core.MBBEOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("a search handed an expired deadline returned %v", err)
	}
}

// TestExchangeAllocations pins what a warm exchange pays per message: a
// chain request decodes with no allocation at all (its Chain's array is the
// exchange's), and a FlowInfo response encodes with one object per
// timestamp it carries (time.Time.MarshalJSON's), none of encoding/json's
// own.
func TestExchangeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := new(exchange)
	x.buf.WriteString(`{"chain":[1,2,3,4,5],"max_width":2,"src":0,"dst":2,"rate":1,"size":1,"ttl_seconds":30}`)
	decode := func() {
		x.flow = FlowRequest{Chain: x.flow.Chain[:0]}
		if err := x.buf.Decode(&x.flow); err != nil {
			t.Fatal(err)
		}
	}
	decode()
	if got := testing.AllocsPerRun(100, decode); got != 0 {
		t.Errorf("chain request decode: %v allocations, want 0", got)
	}

	w := &discardWriter{header: http.Header{}}
	created := time.Date(2026, 3, 4, 5, 6, 7, 890, time.UTC)
	expires := created.Add(time.Minute)
	plain := FlowInfo{ID: 7, SFC: "1;2,3;4", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: "mbbe", Created: created, State: FlowStateActive}
	ttl := plain
	ttl.ExpiresAt = &expires
	for _, c := range []struct {
		info FlowInfo
		want float64
	}{{plain, 1}, {ttl, 2}} {
		send := func() { x.writeInfo(w, http.StatusOK, c.info) }
		send()
		if got := testing.AllocsPerRun(100, send); got != c.want {
			t.Errorf("FlowInfo response with ExpiresAt %v: %v allocations, want %v", c.info.ExpiresAt, got, c.want)
		}
	}
}

// discardWriter is a ResponseWriter that allocates nothing.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardWriter) WriteHeader(int)             {}
