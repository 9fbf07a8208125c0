package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
)

// White-box admission tests: they watch the count of waiting requests to
// hold the server at a known point, so they live inside the package (the typed
// client cannot be imported here — it would close an import cycle).

func overflowNet() *network.Network {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 10, 2)
	return net
}

func TestServerQueueOverflow(t *testing.T) {
	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	block := func(p *core.Problem) (*core.Result, error) {
		entered <- struct{}{}
		<-gate
		return core.EmbedMBBE(p)
	}
	srv, err := New(Config{
		Net: overflowNet(), Workers: 1, QueueDepth: 1,
		Embedders: map[string]Embedder{"block": block},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx := context.Background()
	req := FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: "block"}

	// First submit holds the single slot; wait until it is inside the
	// embedder.
	results := make(chan error, 2)
	go func() { _, err := srv.Submit(ctx, req); results <- err }()
	<-entered
	// Second submit waits for the slot: the depth-1 queue is full.
	go func() { _, err := srv.Submit(ctx, req); results <- err }()
	waitCond(t, func() bool { return srv.waiting.Load() == 1 })

	// Third submit must bounce with ErrQueueFull without blocking.
	if _, err := srv.Submit(ctx, req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("full queue: got %v, want ErrQueueFull", err)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("blocked submit %d: %v", i, err)
		}
	}
	if srv.ActiveFlows() != 2 {
		t.Fatalf("active flows = %d, want 2", srv.ActiveFlows())
	}
}

// TestBreakerTransitions drives the admission breaker's state machine
// with explicit clocks: closed → open after the failure run, shed with a
// shrinking Retry-After while open, half-open single probe after the
// cooldown, and probe outcome deciding close vs re-open.
func TestBreakerTransitions(t *testing.T) {
	b := &breaker{threshold: 2, cooldown: time.Second}
	t0 := time.Unix(100, 0)

	if probe, err := b.allow(t0); err != nil || probe {
		t.Fatalf("closed breaker: probe=%v err=%v, want plain admit", probe, err)
	}
	b.record(false, false, t0)
	b.record(true, false, t0) // a success resets the run
	b.record(false, false, t0)
	if _, err := b.allow(t0); err != nil {
		t.Fatal("one failure below threshold tripped the breaker")
	}
	b.record(false, false, t0) // second consecutive failure: trips

	_, err := b.allow(t0.Add(200 * time.Millisecond))
	var oe *OverloadedError
	if !errors.As(err, &oe) || oe.RetryAfter != 800*time.Millisecond {
		t.Fatalf("open breaker: %v, want 800ms Retry-After", err)
	}

	// Cooldown over: exactly one probe passes, the rest are shed.
	t1 := t0.Add(1100 * time.Millisecond)
	if probe, err := b.allow(t1); err != nil || !probe {
		t.Fatalf("half-open probe: probe=%v err=%v, want the probe slot", probe, err)
	}
	if _, err := b.allow(t1); !errors.As(err, &oe) {
		t.Fatalf("second request during probe: %v, want shed", err)
	}
	// A straggler's stale verdict while half-open must not decide.
	b.record(true, false, t1)
	if _, err := b.allow(t1); !errors.As(err, &oe) {
		t.Fatalf("straggler success closed the half-open breaker: %v", err)
	}
	b.record(false, true, t1) // failed probe re-opens
	if _, err := b.allow(t1.Add(time.Millisecond)); !errors.As(err, &oe) {
		t.Fatalf("re-opened breaker admitted: %v", err)
	}

	t2 := t1.Add(1100 * time.Millisecond)
	if probe, err := b.allow(t2); err != nil || !probe {
		t.Fatalf("second probe: probe=%v err=%v", probe, err)
	}
	b.record(true, true, t2) // good probe closes
	for i := 0; i < 5; i++ {
		if _, err := b.allow(t2.Add(time.Second)); err != nil {
			t.Fatalf("closed breaker shed request %d: %v", i, err)
		}
	}

	// threshold 0 disables everything.
	off := &breaker{cooldown: time.Second}
	for i := 0; i < 10; i++ {
		off.record(false, false, t0)
	}
	off.abortProbe()
	if _, err := off.allow(t0); err != nil {
		t.Fatalf("disabled breaker shed: %v", err)
	}
}

// TestBreakerAbortProbeFreesSlot pins the probe-wedge fix: a probe that
// dies at admission (queue full, draining, timeout) must give the slot
// back, so the next request can probe instead of every request shedding
// 503 forever.
func TestBreakerAbortProbeFreesSlot(t *testing.T) {
	b := &breaker{threshold: 1, cooldown: time.Second}
	t0 := time.Unix(100, 0)
	b.record(false, false, t0) // trips

	t1 := t0.Add(1100 * time.Millisecond)
	probe, err := b.allow(t1)
	if err != nil || !probe {
		t.Fatalf("first probe: probe=%v err=%v", probe, err)
	}
	b.abortProbe() // the probe bounced at admission: no verdict

	// The slot is free again: a new request becomes the probe...
	probe, err = b.allow(t1.Add(time.Millisecond))
	if err != nil || !probe {
		t.Fatalf("probe after abort: probe=%v err=%v, want a fresh slot", probe, err)
	}
	// ...and only one at a time, still.
	var oe *OverloadedError
	if _, err := b.allow(t1.Add(time.Millisecond)); !errors.As(err, &oe) {
		t.Fatalf("second concurrent probe admitted: %v", err)
	}
	b.record(true, true, t1.Add(2*time.Millisecond))
	if _, err := b.allow(t1.Add(3 * time.Millisecond)); err != nil {
		t.Fatalf("breaker did not close after the post-abort probe: %v", err)
	}
}

// waitCond polls cond until it holds or a generous deadline expires.
func waitCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerProbeSurvivesAdmissionRejection reproduces the probe-wedge
// scenario end to end: the breaker goes half-open while the admission
// queue is full, so its probe request bounces with ErrQueueFull without
// an embed ever judging it. The slot must come back — subsequent
// requests keep getting ErrQueueFull (not ErrOverloaded), and once the
// queue drains a fresh probe closes the breaker.
func TestServerProbeSurvivesAdmissionRejection(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1, 100)
	g.MustAddEdge(1, 2, 1, 100)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 10, 4)

	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	block := func(p *core.Problem) (*core.Result, error) {
		entered <- struct{}{}
		<-gate
		return core.EmbedMBBE(p)
	}
	srv, err := New(Config{
		Net: net, Workers: 1, QueueDepth: 1,
		BreakerFailures: 1, BreakerCooldown: time.Millisecond,
		Embedders: map[string]Embedder{"block": block},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	blockReq := FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1, Alg: "block"}
	req := FlowRequest{SFC: "1", Src: 0, Dst: 2, Rate: 1, Size: 1}

	// Hold the single slot and fill the depth-1 queue.
	results := make(chan error, 2)
	go func() { _, err := srv.Submit(ctx, blockReq); results <- err }()
	<-entered
	go func() { _, err := srv.Submit(ctx, blockReq); results <- err }()
	waitCond(t, func() bool { return srv.waiting.Load() == 1 })

	// Trip the breaker and let the cooldown pass: the next admit is the
	// half-open probe — and it bounces on the full queue.
	srv.brk.record(false, false, time.Now())
	time.Sleep(5 * time.Millisecond)
	if _, err := srv.Submit(ctx, req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("probe against full queue: %v, want ErrQueueFull", err)
	}
	// The wedge regression: with the probe slot stuck, this would shed
	// with ErrOverloaded forever. It must instead probe again and hit the
	// same (honest) queue-full.
	if _, err := srv.Submit(ctx, req); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("request after bounced probe: %v, want ErrQueueFull not ErrOverloaded", err)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("blocked submit %d: %v", i, err)
		}
	}
	// Queue drained; the next request takes the probe slot, succeeds, and
	// closes the breaker for the one after it.
	if _, err := srv.Submit(ctx, req); err != nil {
		t.Fatalf("probe after drain: %v", err)
	}
	if _, err := srv.Submit(ctx, req); err != nil {
		t.Fatalf("breaker did not close after successful probe: %v", err)
	}
}

// TestRepairWaitsForASlot: a server too busy to embed delays a repair but
// never charges it. With the one slot held and a request waiting, a
// stranded flow's repair attempt waits for the slot however long the jam
// lasts — far past the default backoff schedule's eight steps — and stays
// repairing; once the slot frees, one embed repairs it.
func TestRepairWaitsForASlot(t *testing.T) {
	// Two disjoint paths 0→3 with an f(1) instance on each middle node;
	// node 1 is cheaper, so the flow lands there and a node-1 fault
	// forces a repair through node 2.
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	net := network.New(g, network.Catalog{N: 1})
	net.MustAddInstance(1, 1, 5, 4)
	net.MustAddInstance(2, 1, 6, 4)

	entered := make(chan struct{}, 8)
	gate := make(chan struct{})
	block := func(p *core.Problem) (*core.Result, error) {
		entered <- struct{}{}
		<-gate
		return core.EmbedMBBE(p)
	}
	srv, err := New(Config{
		Net: net, Workers: 1, QueueDepth: 1,
		Embedders: map[string]Embedder{"block": block},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// The gate opens before Close drains, whichever way the test ends.
	var once sync.Once
	openGate := func() { once.Do(func() { close(gate) }) }
	defer openGate()
	ctx := context.Background()

	info, err := srv.Submit(ctx, FlowRequest{SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Jam the server: one blocked embed holds the slot, one request waits.
	blockReq := FlowRequest{SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1, Alg: "block"}
	results := make(chan error, 2)
	go func() { _, err := srv.Submit(ctx, blockReq); results <- err }()
	<-entered
	go func() { _, err := srv.Submit(ctx, blockReq); results <- err }()
	waitCond(t, func() bool { return srv.waiting.Load() == 1 })

	if _, err := srv.ApplyFault(network.Fault{Kind: network.FaultNodeDown, Node: 1}); err != nil {
		t.Fatal(err)
	}
	// The default backoff (25 ms doubling to 1 s, plus up to half again of
	// jitter) spends eight steps within 5.4 s.
	time.Sleep(6 * time.Second)
	if got, ok := srv.Flow(info.ID); !ok || got.State != FlowStateRepairing {
		t.Fatalf("flow during the jam = %+v, want state repairing (not evicted)", got)
	}

	openGate()
	for i := 0; i < 2; i++ {
		<-results // outcome irrelevant: they only existed to jam the server
	}
	waitCond(t, func() bool {
		got, ok := srv.Flow(info.ID)
		return ok && got.State == FlowStateActive && got.Repairs == 1
	})
	var embeds, tries, refused int
	stranded, repaired := false, false
	for _, ev := range srv.journal.Flow(info.ID, 0) {
		switch {
		case ev.Type == journal.Type(flowstate.Strand.String()):
			stranded = true
		case !stranded:
		case ev.Type == journal.TypeEmbedDone:
			embeds++
		case ev.Type == journal.TypeRepairAttempt:
			tries++
		case ev.Type == journal.TypeRejected:
			refused++
		case ev.Type == journal.Type(flowstate.Commit.String()) && ev.Detail == "repair":
			repaired = true
		}
	}
	if !repaired || embeds != 1 || tries != 1 || refused != 0 {
		t.Fatalf("repaired %v after %d embeds, %d attempts, %d refusals; want a repair commit after exactly one of each and none refused",
			repaired, embeds, tries, refused)
	}
}
