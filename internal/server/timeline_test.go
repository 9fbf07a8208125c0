package server_test

// Flight-recorder coverage: every terminal outcome the server can hand
// a flow — committed+released, commit-conflicted, TTL-expired and
// repair-evicted — must leave a complete enqueue→terminal timeline under
// the flow's ID, each state change named by its transition, and the global
// journal must page cleanly over HTTP.

import (
	"context"
	"errors"
	"net/http"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/server"
	"dagsfc/internal/server/client"
	"dagsfc/internal/sfc"
)

// named is the journal's name for a transition of kind k.
func named(k flowstate.Kind) journal.Type { return journal.Type(k.String()) }

// typesOf projects a timeline onto its event types, in order.
func typesOf(events []journal.Event) []journal.Type {
	out := make([]journal.Type, len(events))
	for i, ev := range events {
		out[i] = ev.Type
	}
	return out
}

// assertSubsequence fails unless want appears within got in order (other
// events may interleave — repairs add attempts).
func assertSubsequence(t *testing.T, got []journal.Type, want ...journal.Type) {
	t.Helper()
	i := 0
	for _, g := range got {
		if i < len(want) && g == want[i] {
			i++
		}
	}
	if i != len(want) {
		t.Fatalf("timeline %v missing ordered subsequence %v (matched %d)", got, want, i)
	}
}

// assertTimeline fails unless got is exactly want.
func assertTimeline(t *testing.T, got []journal.Type, want ...journal.Type) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("timeline %v, want exactly %v", got, want)
	}
}

// lastEvent is the newest event journaled for flow id.
func lastEvent(srv *server.Server, id int64) journal.Event {
	evs := srv.Journal().Flow(id, 1)
	if len(evs) == 0 {
		return journal.Event{}
	}
	return evs[0]
}

// assertMonotonicSeq fails if the timeline's sequence numbers are not
// strictly increasing (journal.Flow promises oldest-first order).
func assertMonotonicSeq(t *testing.T, events []journal.Event) {
	t.Helper()
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("timeline seq not increasing at %d: %d then %d", i, events[i-1].Seq, events[i].Seq)
		}
	}
}

func TestTimelineCommittedAndReleased(t *testing.T) {
	_, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()

	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
		t.Fatal(err)
	}

	page, err := cl.FlowEvents(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMonotonicSeq(t, page.Events)
	assertTimeline(t, typesOf(page.Events),
		journal.TypeEnqueue, journal.TypeDequeue, journal.TypeEmbedDone,
		named(flowstate.Commit), named(flowstate.Release))

	for _, ev := range page.Events {
		if ev.Flow != info.ID {
			t.Fatalf("foreign event in flow timeline: %+v", ev)
		}
		switch ev.Type {
		case journal.TypeEmbedDone:
			if ev.Cost <= 0 || ev.Workers <= 0 || ev.Seconds < 0 {
				t.Fatalf("embed_done not carrying embed facts: %+v", ev)
			}
		case named(flowstate.Commit):
			if ev.Cost != info.Cost.Total || ev.Detail != "" {
				t.Fatalf("commit cost %v detail %q, want %v and none", ev.Cost, ev.Detail, info.Cost.Total)
			}
		case journal.TypeDequeue:
			if ev.Seconds < 0 {
				t.Fatalf("dequeue with negative queue wait: %+v", ev)
			}
		}
	}
	// The embed began after the dequeue: embed_done says when, by its
	// duration (to the microsecond the wire's float seconds keep).
	dequeued, done := page.Events[1], page.Events[2]
	if began := done.Time.Add(-time.Duration(done.Seconds * float64(time.Second))); began.Before(dequeued.Time.Add(-time.Microsecond)) {
		t.Fatalf("embed began at %v, before its dequeue at %v", began, dequeued.Time)
	}
}

func TestTimelineCommitConflict(t *testing.T) {
	net := tinyNet()
	// The stale-embedder trick from TestServerCommitConflictRetries: both
	// submissions return the same rate-2 placement, so the second commit
	// must conflict, retry once (still stale) and reject.
	seedRes, err := core.EmbedMBBE(&core.Problem{
		Net: net, SFC: sfc.DAGSFC{Layers: []sfc.Layer{{VNFs: []network.VNFID{1}}}},
		Src: 0, Dst: 2, Rate: 2, Size: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	stale := func(p *core.Problem) (*core.Result, error) {
		calls.Add(1)
		return seedRes, nil
	}
	srv, cl := newTestServer(t, server.Config{
		Net: net, Workers: 2,
		Embedders: map[string]server.Embedder{"stale": stale},
	})

	req := lineRequest(2)
	req.Alg = "stale"
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() { _, err := srv.Submit(context.Background(), req); errs <- err }()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil && !errors.Is(err, server.ErrCommitConflict) {
			t.Fatalf("unexpected error: %v", err)
		}
	}

	// Find the loser through the journal itself: the flow with a
	// commit_conflict event.
	var loser int64
	events, _, _ := srv.Journal().Since(0, 0)
	for _, ev := range events {
		if ev.Type == journal.TypeCommitConflict {
			loser = ev.Flow
			break
		}
	}
	if loser == 0 {
		t.Fatal("no commit_conflict event recorded")
	}
	// The loser never committed, so it has no meta entry — the timeline
	// endpoint must still serve its retained events.
	page, err := cl.FlowEvents(context.Background(), loser, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMonotonicSeq(t, page.Events)
	// The retry re-embeds on the slot the request holds: no second
	// enqueue or dequeue.
	assertTimeline(t, typesOf(page.Events),
		journal.TypeEnqueue, journal.TypeDequeue, journal.TypeEmbedDone,
		journal.TypeCommitConflict, // first round loses
		journal.TypeEmbedDone,      // the retry's embed
		journal.TypeCommitConflict, // retry still stale
		journal.TypeRejected)       // terminal
	last := page.Events[len(page.Events)-1]
	if last.Type != journal.TypeRejected || last.Err == "" {
		t.Fatalf("conflicted flow's terminal event = %+v, want rejected with error", last)
	}
}

func TestTimelineTTLExpired(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()

	req := lineRequest(1)
	req.TTLSeconds = 0.05
	info, err := cl.CreateFlow(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return srv.ActiveFlows() == 0 })

	page, err := cl.FlowEvents(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertTimeline(t, typesOf(page.Events),
		journal.TypeEnqueue, journal.TypeDequeue, journal.TypeEmbedDone,
		named(flowstate.Commit), named(flowstate.Expire))
}

func TestTimelineRepairEvicted(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: tinyNet(), Workers: 2}))
	ctx := context.Background()

	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	// The only path dies; repair has no target and must evict.
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "link-down", Link: 0}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return lastEvent(srv, info.ID).Type == named(flowstate.Evict) })
	if got, ok := srv.Flow(info.ID); !ok || got.State != server.FlowStateEvicted {
		t.Fatalf("evicted flow = %+v, want an evicted tombstone", got)
	}

	page, err := cl.FlowEvents(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertMonotonicSeq(t, page.Events)
	assertSubsequence(t, typesOf(page.Events),
		journal.TypeEnqueue, named(flowstate.Commit), named(flowstate.Strand),
		journal.TypeRepairAttempt, named(flowstate.Evict))
	for _, ev := range page.Events {
		if ev.Type == named(flowstate.Evict) {
			if ev.Err == "" || ev.Seconds <= 0 || ev.Detail == "" {
				t.Fatalf("evicted event missing cause/duration/fault: %+v", ev)
			}
		}
	}
}

func TestTimelineRepairSucceeded(t *testing.T) {
	srv, cl := newTestServer(t, fastRepairs(server.Config{Net: twoPathNet(), Workers: 2}))
	ctx := context.Background()

	info, err := cl.CreateFlow(ctx, server.FlowRequest{SFC: "1", Src: 0, Dst: 3, Rate: 1, Size: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ApplyFault(ctx, server.FaultRequest{Kind: "node-down", Node: 1}); err != nil {
		t.Fatal(err)
	}
	// The repair re-commits under the same ID.
	waitFor(t, func() bool {
		last := lastEvent(srv, info.ID)
		return last.Type == named(flowstate.Commit) && last.Detail == "repair"
	})

	page, err := cl.FlowEvents(ctx, info.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSubsequence(t, typesOf(page.Events),
		named(flowstate.Commit), named(flowstate.Strand), journal.TypeRepairAttempt, named(flowstate.Commit))
	if got, ok := srv.Flow(info.ID); !ok || got.State != server.FlowStateActive || got.Repairs != 1 {
		t.Fatalf("repaired flow = %+v, want active after one repair", got)
	}
}

func TestEventsPagingOverHTTP(t *testing.T) {
	_, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		info, err := cl.CreateFlow(ctx, lineRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}

	var all []journal.Event
	var cursor uint64
	pages := 0
	for {
		page, err := cl.Events(ctx, cursor, 5)
		if err != nil {
			t.Fatal(err)
		}
		if page.Missed != 0 {
			t.Fatalf("missed %d events with no overflow", page.Missed)
		}
		if len(page.Events) == 0 {
			break
		}
		if len(page.Events) > 5 {
			t.Fatalf("page of %d events over limit 5", len(page.Events))
		}
		all = append(all, page.Events...)
		cursor = page.Next
		pages++
	}
	if pages < 2 {
		t.Fatalf("only %d pages; paging untested", pages)
	}
	assertMonotonicSeq(t, all)
	// 3 commit/release cycles: 5 events each.
	if len(all) != 15 {
		t.Fatalf("journal retained %d events, want 15", len(all))
	}
}

func TestEventsOverflowReportsMissed(t *testing.T) {
	// A deliberately tiny ring: two full commit/release cycles overflow it,
	// and a from-zero read must say exactly how much history is gone.
	_, cl := newTestServer(t, server.Config{Net: tinyNet(), JournalSize: 4})
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		info, err := cl.CreateFlow(ctx, lineRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.ReleaseFlow(ctx, info.ID); err != nil {
			t.Fatal(err)
		}
	}
	page, err := cl.Events(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Missed == 0 {
		t.Fatal("overflowed ring reported no missed events")
	}
	if len(page.Events) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(page.Events))
	}
}

func TestFlowEventsUnknownFlow404(t *testing.T) {
	_, cl := newTestServer(t, server.Config{Net: tinyNet()})
	_, err := cl.FlowEvents(context.Background(), 424242, 0)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown flow events = %v, want 404", err)
	}
}

// TestFlowEventsFlowZero404: flow IDs start at 1, and the events that
// belong to no flow — breaker transitions, faults — carry 0; they are not
// a flow's timeline.
func TestFlowEventsFlowZero404(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet(), BreakerFailures: 2})
	ctx := context.Background()
	for i := 0; i < 2; i++ { // two infeasible embeds trip the breaker
		if _, err := srv.Submit(ctx, lineRequest(1000)); !errors.Is(err, core.ErrNoEmbedding) {
			t.Fatalf("submit %d: %v, want ErrNoEmbedding", i, err)
		}
	}
	fault := server.FaultRequest{Kind: "link-degrade", Link: 0, Fraction: 0.5}
	if _, err := cl.ApplyFault(ctx, fault); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.RestoreFault(ctx, fault); err != nil {
		t.Fatal(err)
	}
	if flowless := srv.Journal().Flow(0, 0); len(flowless) == 0 {
		t.Fatal("no flowless event journaled")
	}
	for _, id := range []int64{0, -1} {
		page, err := cl.FlowEvents(ctx, id, 0)
		var apiErr *client.APIError
		if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusNotFound {
			t.Fatalf("flow %d events = %+v, %v; want 404", id, page, err)
		}
	}
}

// TestFlowIDsAllocatedAtAdmission documents the PR's ID change: rejected
// requests consume IDs too, so a conflicted request has an identity — and
// committed IDs are therefore not necessarily dense.
func TestFlowIDsAllocatedAtAdmission(t *testing.T) {
	srv, cl := newTestServer(t, server.Config{Net: tinyNet()})
	ctx := context.Background()
	// Burn an ID on a no-embedding rejection (src==dst with no instance
	// is invalid; use an unreachable rate instead).
	if _, err := cl.CreateFlow(ctx, lineRequest(1000)); err == nil {
		t.Fatal("oversized flow unexpectedly accepted")
	}
	info, err := cl.CreateFlow(ctx, lineRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.ID < 2 {
		t.Fatalf("flow ID %d: the rejected request did not consume an ID", info.ID)
	}
	// The rejected request's timeline exists under its own ID.
	var sawRejected bool
	events, _, _ := srv.Journal().Since(0, 0)
	for _, ev := range events {
		if ev.Type == journal.TypeRejected && ev.Flow != 0 && ev.Flow != info.ID {
			sawRejected = true
		}
	}
	if !sawRejected {
		t.Fatal("no journaled rejected event for the failed request")
	}
}
