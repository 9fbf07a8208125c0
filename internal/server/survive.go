// Survivability: the server-side half of the fault injector. ApplyFault
// quarantines capacity on the live ledger and scans committed flows for
// casualties; flows whose embedding no longer validates are released and
// handed to a single restore controller on the server's timeline that
// re-embeds them through serve, the path a request takes, with bounded
// exponential backoff and deterministic jitter. The same controller re-arms
// the backup of a protected flow that lost or spent it. Flows whose repairs
// are exhausted become terminal "evicted" tombstones, still visible over
// GET /v1/flows. The admission circuit breaker lives here too: a run of
// consecutive embed/commit failures flips it open and new flows are shed
// with 503 + Retry-After until a cooldown passes and a probe succeeds.
package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"dagsfc/internal/faults"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
)

// repairTask is one flow waiting for the restore controller: stranded by a
// fault (its resources already released), or live but short of the backup
// it was admitted with. Which of the two is read off the flow's record at
// every attempt, not remembered here. info carries the original request
// in wire form, which is re-prepared per attempt.
type repairTask struct {
	id    int64
	fault network.Fault
	info  FlowInfo
	// strandedAt anchors the journal's "repair" stage: the time from
	// stranding (or backup loss) to the terminal event.
	strandedAt time.Time
	// attempts counts the attempts made so far; need is what the flow
	// lacked at the last of them.
	attempts int
	need     flowstate.Need
}

// ApplyFault quarantines the fault's capacity on the live ledger (POST
// /v1/faults). Committed flows that traverse the failed element are
// revalidated; survivors stay in place, a protected flow whose primary
// died fails over to its pre-reserved backup (no re-embed, no strand),
// and everything else is released and queued for repair. Snapshots
// already taken by in-flight embeds share the live ledger's quarantine, so
// they observe the fault at once, and a commit's flowstate.Check refuses
// any placement that no longer fits the post-fault residuals.
//
// The work runs in three phases so a large fault scan never stalls
// admissions: quarantine + candidate collection under s.mu, revalidation of
// every candidate on one scratch copy of one snapshot with the lock
// released, then a short re-acquisition that turns each verdict into
// a transition. An OK verdict cannot be invalidated by commits that
// interleaved (a flow always re-fits its own reserved slot unless new
// quarantine lands, and a concurrent fault re-scans everything itself); a
// stale dead verdict is caught by the transition's identity guard or leads
// to a failover/strand that the flow's owner would have needed anyway.
func (s *Server) ApplyFault(f network.Fault) (FaultState, error) {
	begin := time.Now()
	s.mu.Lock()
	// ticket follows the newest record this call enqueued; waiting on it
	// before the call returns covers all of them.
	apply := flowstate.Transition{Kind: flowstate.FaultApply, Fault: f}
	applied, ticket, err := s.transitLocked(apply)
	if err != nil {
		s.mu.Unlock()
		telemetry.RecordServerRequest("faults.apply", "invalid", time.Since(begin))
		return FaultState{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	appliedAt := time.Now()

	// Phase one: collect the flows the fault touches (primary or backup),
	// in ascending ID order for a deterministic repair sequence, plus one
	// shared snapshot to judge them against.
	var cands []flowstate.Placement
	for _, pl := range s.state.Placements() {
		if faults.Hits(s.net, pl.Primary, f) || (pl.Backup != nil && faults.Hits(s.net, pl.Backup, f)) {
			cands = append(cands, pl)
		}
	}
	var snap *network.Ledger
	if len(cands) > 0 {
		snap = s.state.Snapshot()
	}
	st := s.faultStateLocked()
	s.mu.Unlock()
	s.emit(apply, applied, journal.Event{Time: appliedAt}, 0)

	// Phase two, unlocked: each candidate's verdict (flowstate.Verdict),
	// reached net of its own reservations on one scratch copy of snap,
	// rewritten per candidate.
	verdicts := make([]flowstate.Transition, len(cands))
	scratch := new(network.Ledger)
	for i, pl := range cands {
		if s.revalHook != nil {
			s.revalHook(pl.ID)
		}
		verdicts[i] = flowstate.Verdict(snap, pl, f, scratch)
	}

	// Phase three: apply the verdicts under s.mu. One whose flow's
	// placements changed while the lock was released comes back stale and
	// is skipped (released, repaired or failed over concurrently — whoever
	// moved it reconciled it against the post-fault ledger already, since
	// the quarantine landed in phase one).
	type outcome struct {
		t  flowstate.Transition
		ch flowstate.Change
		at time.Time
	}
	var outcomes []outcome
	if len(verdicts) > 0 {
		s.mu.Lock()
		for _, t := range verdicts {
			ch, tk, err := s.transitLocked(t)
			if err != nil {
				continue
			}
			ticket = max(ticket, tk)
			outcomes = append(outcomes, outcome{t, ch, time.Now()})
		}
		s.mu.Unlock()
	}

	// Flows short of a backup queue ahead of the stranded ones, each group
	// in ID order.
	var rearm, stranded []*repairTask
	for _, o := range outcomes {
		s.emit(o.t, o.ch, journal.Event{Time: o.at}, o.at.Sub(appliedAt))
		if o.t.Kind == flowstate.Revalidate {
			continue
		}
		task := &repairTask{id: o.t.Flow, fault: f, info: o.ch.Info, strandedAt: o.at}
		if o.t.Kind == flowstate.Strand {
			s.timeline.Cancel(o.t.Flow)
			stranded = append(stranded, task)
		} else {
			rearm = append(rearm, task)
		}
	}
	s.timeline.Enqueue(append(rearm, stranded...)...)
	s.walWait(ticket)
	st.PendingRepairs = s.PendingRepairs()
	telemetry.RecordServerRequest("faults.apply", "ok", time.Since(begin))
	return st, nil
}

// RestoreFault returns a previously applied fault's quarantined capacity
// (POST /v1/faults/restore). Repairing or evicted flows are not
// resurrected — a restore only changes what future embeds (including
// pending repairs) can use.
func (s *Server) RestoreFault(f network.Fault) (FaultState, error) {
	begin := time.Now()
	s.mu.Lock()
	restore := flowstate.Transition{Kind: flowstate.FaultRestore, Fault: f}
	ch, ticket, err := s.transitLocked(restore)
	if err != nil {
		s.mu.Unlock()
		telemetry.RecordServerRequest("faults.restore", "invalid", time.Since(begin))
		return FaultState{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	st := s.faultStateLocked()
	s.mu.Unlock()
	s.emit(restore, ch, journal.Event{}, 0)
	s.walWait(ticket)
	st.PendingRepairs = s.PendingRepairs()
	telemetry.RecordServerRequest("faults.restore", "ok", time.Since(begin))
	return st, nil
}

// Faults reports the active faults, the lifetime counters and the restore
// controller's backlog (GET /v1/faults).
func (s *Server) Faults() FaultState {
	s.mu.Lock()
	st := s.faultStateLocked()
	s.mu.Unlock()
	st.PendingRepairs = s.PendingRepairs()
	return st
}

func (s *Server) faultStateLocked() FaultState {
	active, applied, restored := s.state.Faults()
	st := FaultState{Active: make([]FaultRequest, 0, len(active)), Applied: applied, Restored: restored}
	for _, f := range active {
		st.Active = append(st.Active, flowstate.FaultToWire(f))
	}
	return st
}

// PendingRepairs reports how many flows are queued for or in the hands of
// the restore controller — zero means every fault consequence so far has
// reached a terminal outcome (the wire driver's settling condition, read
// off GET /v1/faults).
func (s *Server) PendingRepairs() int { return s.timeline.Restores() }

// RevalidateFlows re-judges every committed flow against the current
// residual network (flowstate.Verdict: primary and backup, net of the
// flow's own reservations, the backup beside the primary). It returns the
// IDs whose verdict is anything but "stands as it is" — after a quiescent
// repair pass this must be empty, which is the chaos invariant.
func (s *Server) RevalidateFlows() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap, scratch := s.state.Snapshot(), new(network.Ledger)
	var bad []int64
	for _, pl := range s.state.Placements() {
		if flowstate.Verdict(snap, pl, network.Fault{}, scratch).Kind != flowstate.Revalidate {
			bad = append(bad, pl.ID)
		}
	}
	return bad
}

// restoreOne makes one attempt to drive a flow back to what it was
// admitted with, and returns when the next is due (zero if none). What the
// flow lacks is read off its record before every attempt — no primary (a
// fault stranded it): re-embed it under its original ID; a live primary but
// no backup (failover spent it, or a fault killed it): embed a fresh
// disjoint backup — and only two things differ by case: which search serve
// runs, and what exhaustion means (an evicted tombstone vs. serving on,
// unprotected). An attempt waits for an embed slot however busy the server
// is, so every attempt counted against RepairRetries ran an embed: load
// delays a repair but never evicts a flow that could have been repaired.
func (s *Server) restoreOne(t *repairTask, rng *rand.Rand) (retryAt time.Time) {
	s.mu.Lock()
	need, _ := s.state.Lacks(t.id)
	s.mu.Unlock()
	if need == flowstate.NeedNothing || (t.attempts > 0 && need != t.need) {
		// Released by its owner, restored already, or re-stranded by a
		// newer fault whose own task will take it from here.
		return time.Time{}
	}
	t.need = need
	lastErr := s.restoreAttempt(t)
	if errors.Is(lastErr, ErrDraining) || errors.Is(lastErr, ErrNotFound) {
		return time.Time{} // stopping, or the flow stopped needing this mid-attempt
	}
	if t.attempts++; lastErr != nil && t.attempts < s.cfg.RepairRetries {
		return time.Now().Add(s.repairBackoff(t.attempts, rng))
	}
	took := time.Since(t.strandedAt)
	ev := journal.Event{Flow: t.id, Attempt: t.attempts}
	if lastErr != nil {
		ev.Err = lastErr.Error()
	}
	switch {
	case need == flowstate.NeedBackup && lastErr == nil:
		// Armed; the backup transition reported it.
	case need == flowstate.NeedBackup:
		// Exhausted: the flow stays active on its primary without a backup.
		ev.Type, ev.Detail = journal.TypeRejected, "re-protect"
		s.journal.Append(ev)
	case lastErr == nil:
		// Re-registered; the repair's commit reported it.
		telemetry.RecordServerStage(telemetry.StageRepair, took)
		telemetry.RecordRepair("repaired")
		// A repaired protected flow comes back unprotected: the same task
		// goes round again for its backup.
		if t.info.Protection == ProtectionBackup {
			t.strandedAt, t.attempts = time.Now(), 0
			s.timeline.Enqueue(t)
		}
	default:
		evict := flowstate.Transition{Kind: flowstate.Evict, Flow: t.id, Fault: t.fault, LastError: ev.Err}
		// A flow that held a backup and still could not be saved lost its
		// protection, not just a re-embed race; the tombstone says so.
		if t.info.Protection == ProtectionBackup {
			evict.Cause = CauseProtectionLost
		}
		s.mu.Lock()
		ch, ticket, err := s.transitLocked(evict)
		s.mu.Unlock()
		if err != nil {
			break // released by its owner while we were retrying: no tombstone
		}
		s.walWait(ticket)
		s.emit(evict, ch, ev, took)
	}
	return time.Time{}
}

// repairBackoff is the capped exponential delay before the given retry
// (1-based), plus deterministic jitter in [0, delay/2].
func (s *Server) repairBackoff(retry int, rng *rand.Rand) time.Duration {
	delay := s.cfg.RepairBackoff << (retry - 1)
	if delay > s.cfg.RepairBackoffCap || delay <= 0 {
		delay = s.cfg.RepairBackoffCap
	}
	return delay + time.Duration(rng.Int63n(int64(delay/2)+1))
}

// restoreAttempt runs one restore job through serve, the path a request
// takes, and returns its outcome. The job carries the task, so speculate
// picks the search off the flow's record and the commit re-registers the
// flow under its original ID (or arms its backup) instead of allocating a
// new one; the job also inherits that ID, so every journal event of the
// attempt lands on the flow's timeline. The request carries no TTL: a
// restored flow keeps the deadline it was admitted with.
func (s *Server) restoreAttempt(t *repairTask) error {
	req := FlowRequest{
		SFC: t.info.SFC, Src: t.info.Src, Dst: t.info.Dst,
		Rate: t.info.Rate, Size: t.info.Size, Alg: t.info.Alg,
	}
	pr, err := s.prepare(req)
	if err != nil {
		return err
	}
	j := &job{ctx: deadline{Context: context.Background()}, id: t.id, prepared: pr, repair: t, need: t.need}
	detail := t.fault.String()
	if t.need == flowstate.NeedBackup {
		detail = "re-protect"
	}
	s.journal.Append(journal.Event{
		Type: journal.TypeRepairAttempt, Flow: t.id, Alg: j.alg, Attempt: t.attempts + 1, Detail: detail,
	})
	if err := s.enter(j); err != nil {
		return err
	}
	defer s.inflight.Done()
	r := s.serve(j)
	// The controller treats a nil error as "restored": like any
	// acknowledgment, that waits for the commit record.
	s.walWait(r.ticket)
	return r.err
}

// breaker is the admission circuit breaker: a run of threshold
// consecutive embed/commit failures opens it; while open, admissions are
// shed with ErrOverloaded until cooldown passes; the first request after
// cooldown is a half-open probe whose outcome closes or re-opens it.
// threshold 0 disables it entirely.
type breaker struct {
	mu        sync.Mutex
	threshold int
	cooldown  time.Duration

	state    int // 0 closed, 1 half-open, 2 open
	fails    int
	openedAt time.Time
	probing  bool

	// onTransition, when set, is called with the new state's name
	// ("closed", "half_open", "open") at every state change, under mu —
	// the callee must not call back into the breaker. The server points it
	// at the journal.
	onTransition func(state string)
}

// transition flips the breaker to the given state, publishes it (a flip to
// open is a trip) and notifies the hook. Callers hold mu, or own b outright.
func (b *breaker) transition(state int) {
	b.state = state
	telemetry.SetBreakerState(state)
	if b.onTransition != nil {
		b.onTransition([...]string{"closed", "half_open", "open"}[state])
	}
}

// allow decides one admission; non-nil err means shed. probe reports
// that this request holds the breaker's single half-open probe slot: the
// caller must either deliver the probe's verdict through record or give
// the slot back with abortProbe if the request dies before the pipeline
// judges it (queue full, draining, timeout).
func (b *breaker) allow(now time.Time) (probe bool, err error) {
	if b.threshold <= 0 {
		return false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 2: // open
		if wait := b.cooldown - now.Sub(b.openedAt); wait > 0 {
			return false, &OverloadedError{RetryAfter: wait}
		}
		b.transition(1)
		b.probing = true
		return true, nil
	case 1: // half-open
		if b.probing {
			return false, &OverloadedError{RetryAfter: b.cooldown}
		}
		b.probing = true
		return true, nil
	}
	return false, nil
}

// abortProbe returns the half-open probe slot without a verdict: the
// request holding it was rejected at admission or timed out before the
// pipeline judged it, which says nothing about the substrate's health.
// The breaker stays half-open and the next admission becomes the probe —
// without this, a probe dying at admission (likely under the very
// overload that opened the breaker) would leave probing set forever and
// every subsequent request would shed.
func (b *breaker) abortProbe() {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == 1 {
		b.probing = false
	}
}

// record feeds one pipeline decision back; probe marks the request that
// holds the half-open probe slot. Only embed/commit outcomes reach here
// — admission-level rejections (queue full, draining, timeout) say
// nothing about the substrate's health.
func (b *breaker) record(success, probe bool, now time.Time) {
	if b.threshold <= 0 {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case 1: // half-open: only the probe's outcome decides
		if !probe {
			// A straggler admitted before the trip; its verdict is stale.
			return
		}
		b.probing = false
		if success {
			b.transition(0)
			b.fails = 0
		} else {
			b.transition(2)
			b.openedAt = now
		}
	case 0: // closed
		if success {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= b.threshold {
			b.transition(2)
			b.openedAt = now
		}
	}
}
