// Survivability: the server-side half of the fault injector. ApplyFault
// quarantines capacity on the live ledger and scans committed flows for
// casualties; flows whose embedding no longer validates are released and
// handed to a single repair controller that re-embeds them through the
// ordinary speculative-worker/commit-loop pipeline with bounded
// exponential backoff and deterministic jitter. Flows whose repairs are
// exhausted become terminal "evicted" tombstones, still visible over GET
// /v1/flows. The admission circuit breaker lives here too: a run of
// consecutive embed/commit failures flips it open and new flows are shed
// with 503 + Retry-After until a cooldown passes and a probe succeeds.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// RepairEvent is one terminal repair decision, in the order the server
// made them. With a fixed fault sequence and a deterministic embedder the
// log is reproducible: casualties are scanned in ascending flow-ID order
// and repaired strictly one at a time.
type RepairEvent struct {
	Flow  int64
	Fault network.Fault
	// Outcome is "revalidated" (the embedding survived the fault in
	// place), "repaired" (re-embedded onto new resources), "evicted",
	// "failover" (the fault killed the primary and the pre-reserved
	// backup was promoted in place) or "backup-lost" (the fault killed
	// the backup while the primary survived).
	Outcome string
	// Attempts is the number of re-embed attempts the pipeline actually
	// judged (0 for revalidations). Admission-level rejections retried
	// under Config.RepairAdmitRetries are not counted.
	Attempts int
}

// repairTask is one stranded flow waiting for the repair controller. Its
// resources are already released; info still carries the original
// request in wire form, which is re-prepared per attempt.
type repairTask struct {
	id    int64
	fault network.Fault
	info  FlowInfo
	// strandedAt anchors the journal's "repair" stage: the time from
	// stranding to the terminal repaired/evicted event.
	strandedAt time.Time
	// reprotect marks a background backup re-embed for a flow that is
	// live on its primary but lost its backup (failover or backup-killing
	// fault); the flow is never stranded and exhaustion never evicts it.
	reprotect bool
}

// faultCasualty is one committed flow the fault touches, carried across
// ApplyFault's unlocked revalidation phase. The solution pointers double
// as identity guards: phase three only acts on a flow whose live
// placement is still the exact one phase two judged.
type faultCasualty struct {
	id      int64
	problem *core.Problem
	sol     *core.Solution
	backup  *core.Solution
	priOK   bool
	bakOK   bool
}

// ApplyFault quarantines the fault's capacity on the live ledger (POST
// /v1/faults). Committed flows that traverse the failed element are
// revalidated; survivors stay in place, a protected flow whose primary
// died fails over to its pre-reserved backup (no re-embed, no strand),
// and everything else is released and queued for repair. Snapshots
// already taken by in-flight embeds observe the quarantine at commit time
// — the commit loop re-validates against the post-fault residuals.
//
// The work runs in three phases so a large fault scan never stalls the
// pipeline: quarantine + candidate collection under s.mu, revalidation of
// every candidate on throwaway overlays of one frozen snapshot with the
// lock released, then a short re-acquisition that acts on the verdicts.
// An OK verdict cannot be invalidated by commits that interleaved (a flow
// always re-fits its own reserved slot unless new quarantine lands, and a
// concurrent fault re-scans everything itself); a stale dead verdict is
// caught by the identity guard or leads to a failover/strand that the
// flow's owner would have needed anyway.
func (s *Server) ApplyFault(f network.Fault) (FaultState, error) {
	begin := time.Now()
	s.mu.Lock()
	if err := s.ledger.ApplyFault(f); err != nil {
		s.mu.Unlock()
		telemetry.RecordServerRequest("faults.apply", "invalid", time.Since(begin))
		return FaultState{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	s.activeFaults = append(s.activeFaults, f)
	s.faultsApplied++
	fw := faultToWire(f)
	// ticket follows the newest record this call enqueued; waiting on it
	// before the call returns covers all of them.
	var ticket uint64
	if payload, merr := json.Marshal(fw); merr == nil {
		ticket = s.walEnqueueLocked(wal.TypeFaultApply, 0, payload)
	}
	telemetry.RecordFault(f.Kind.String(), true, len(s.activeFaults))
	appliedAt := time.Now()

	// Phase one: collect the flows the fault touches (primary or backup),
	// in ascending ID order for a deterministic repair sequence, plus one
	// shared snapshot to judge them against.
	ids := s.flows.Keys()
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	var cands []*faultCasualty
	for _, id := range ids {
		fl, ok := s.flows.Get(id)
		if !ok {
			continue
		}
		b := s.backups[id]
		if !faults.Hits(s.net, fl.Solution, f) && (b == nil || !faults.Hits(s.net, b, f)) {
			continue
		}
		cands = append(cands, &faultCasualty{id: id, problem: fl.Problem, sol: fl.Solution, backup: b})
	}
	var snap *network.Ledger
	if len(cands) > 0 {
		snap = s.ledger.Snapshot()
	}
	st := s.faultStateLocked()
	s.mu.Unlock()

	// Phase two, unlocked: revalidate each candidate net of its own
	// reservations — release primary and backup into a throwaway overlay
	// first, so a flow is never condemned for capacity it itself holds.
	// The surviving primary is re-reserved before the backup is judged, so
	// a "both OK" verdict means the pair still fits together.
	for _, c := range cands {
		if s.revalHook != nil {
			s.revalHook(c.id)
		}
		probe := *c.problem
		probe.Ledger = snap.Overlay()
		err := core.Release(&probe, c.sol)
		if err == nil && c.backup != nil {
			err = core.Release(&probe, c.backup)
		}
		if err == nil {
			c.priOK = core.Validate(&probe, c.sol) == nil
			if c.backup != nil {
				if c.priOK {
					if _, cerr := core.Commit(&probe, c.sol); cerr != nil {
						c.priOK = false
					}
				}
				c.bakOK = core.Validate(&probe, c.backup) == nil
			}
		}
		probe.Ledger.Discard()
	}

	// Phase three: act on the verdicts under s.mu, skipping any flow whose
	// placement changed while the lock was released (released, repaired or
	// failed over concurrently — whoever moved it reconciled it against the
	// post-fault ledger already, since the quarantine landed in phase one).
	var stranded []*repairTask
	var revalidated []int64
	type protEvent struct {
		id       int64
		info     FlowInfo
		failover bool
		latency  time.Duration
	}
	var protEvents []protEvent
	if len(cands) > 0 {
		s.mu.Lock()
		for _, c := range cands {
			fl, ok := s.flows.Get(c.id)
			if !ok || fl.Solution != c.sol || s.backups[c.id] != c.backup {
				continue
			}
			info := s.meta[c.id]
			switch {
			case c.priOK && (c.backup == nil || c.bakOK):
				s.repairLog = append(s.repairLog, RepairEvent{Flow: c.id, Fault: f, Outcome: "revalidated"})
				telemetry.RecordRepair("revalidated")
				revalidated = append(revalidated, c.id)

			case c.priOK: // backup died, primary fine
				fl.Problem.Ledger = s.ledger
				_ = core.Release(fl.Problem, c.backup)
				delete(s.backups, c.id)
				info.BackupActive = false
				info.BackupCost = Cost{}
				s.meta[c.id] = info
				if payload, merr := json.Marshal(fw); merr == nil {
					ticket = max(ticket, s.walEnqueueLocked(wal.TypeBackupLoss, c.id, payload))
				}
				s.repairLog = append(s.repairLog, RepairEvent{Flow: c.id, Fault: f, Outcome: "backup-lost"})
				protEvents = append(protEvents, protEvent{id: c.id, info: info})

			case c.backup != nil && c.bakOK: // primary died, backup survives: failover
				fl, _ := s.flows.Release(c.id)
				fl.Problem.Ledger = s.ledger
				_ = core.Release(fl.Problem, fl.Solution)
				s.standFlow(c.id, fl.Problem, c.backup)
				delete(s.backups, c.id)
				info.Cost = info.BackupCost
				info.BackupCost = Cost{}
				info.BackupActive = false
				info.Failovers++
				s.meta[c.id] = info
				if payload, merr := json.Marshal(fw); merr == nil {
					ticket = max(ticket, s.walEnqueueLocked(wal.TypeFailover, c.id, payload))
				}
				s.repairLog = append(s.repairLog, RepairEvent{Flow: c.id, Fault: f, Outcome: "failover"})
				protEvents = append(protEvents, protEvent{
					id: c.id, info: info, failover: true, latency: time.Since(appliedAt),
				})

			default: // primary died, no surviving backup: strand for repair
				fl, _ := s.flows.Release(c.id)
				fl.Problem.Ledger = s.ledger
				_ = core.Release(fl.Problem, fl.Solution)
				if c.backup != nil {
					_ = core.Release(fl.Problem, c.backup)
					delete(s.backups, c.id)
				}
				info.State = FlowStateRepairing
				info.BackupActive = false
				info.BackupCost = Cost{}
				s.meta[c.id] = info
				s.repairFault[c.id] = fw
				if payload, merr := json.Marshal(fw); merr == nil {
					ticket = max(ticket, s.walEnqueueLocked(wal.TypeStrand, c.id, payload))
				}
				stranded = append(stranded, &repairTask{id: c.id, fault: f, info: info, strandedAt: time.Now()})
			}
		}
		telemetry.SetServerActiveFlows(s.flows.Len())
		telemetry.SetBackupsActive(len(s.backups))
		s.mu.Unlock()
	}

	for _, id := range revalidated {
		s.journal.Append(journal.Event{
			Type: journal.TypeRevalidated, Flow: id, Detail: f.String(),
		})
	}
	for _, pe := range protEvents {
		if pe.failover {
			s.journal.Append(journal.Event{
				Type: journal.TypeFailover, Flow: pe.id, Seconds: pe.latency.Seconds(),
				Cost: pe.info.Cost.Total, Detail: f.String(),
			})
			telemetry.RecordServerStage(telemetry.StageFailover, pe.latency)
			telemetry.RecordFailover()
		} else {
			s.journal.Append(journal.Event{
				Type: journal.TypeBackupLost, Flow: pe.id, Detail: f.String(),
			})
		}
		s.enqueueReprotect(pe.id, f, pe.info)
	}
	for _, t := range stranded {
		s.wheel.Cancel(t.id)
		s.journal.Append(journal.Event{
			Time: t.strandedAt, Type: journal.TypeFaultStrand, Flow: t.id,
			Detail: f.String(),
		})
	}
	s.enqueueRepairs(stranded)
	s.walWait(ticket)
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
	if err := s.ledger.RestoreFault(f); err != nil {
		s.mu.Unlock()
		telemetry.RecordServerRequest("faults.restore", "invalid", time.Since(begin))
		return FaultState{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	for i, af := range s.activeFaults {
		if af == f {
			s.activeFaults = append(s.activeFaults[:i], s.activeFaults[i+1:]...)
			break
		}
	}
	s.faultsRestored++
	var ticket uint64
	if payload, merr := json.Marshal(faultToWire(f)); merr == nil {
		ticket = s.walEnqueueLocked(wal.TypeFaultRestore, 0, payload)
	}
	telemetry.RecordFault(f.Kind.String(), false, len(s.activeFaults))
	st := s.faultStateLocked()
	s.mu.Unlock()
	s.walWait(ticket)
	telemetry.RecordServerRequest("faults.restore", "ok", time.Since(begin))
	return st, nil
}

// Faults reports the active faults and lifetime counters (GET /v1/faults).
func (s *Server) Faults() FaultState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faultStateLocked()
}

func (s *Server) faultStateLocked() FaultState {
	st := FaultState{
		Active:   make([]FaultRequest, 0, len(s.activeFaults)),
		Applied:  s.faultsApplied,
		Restored: s.faultsRestored,
	}
	for _, f := range s.activeFaults {
		st.Active = append(st.Active, faultToWire(f))
	}
	return st
}

// RepairLog returns a copy of the terminal repair decisions so far, in
// the order they were made.
func (s *Server) RepairLog() []RepairEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]RepairEvent, len(s.repairLog))
	copy(out, s.repairLog)
	return out
}

// PendingRepairs reports how many stranded flows are queued or mid-repair
// — zero means every fault consequence so far has reached a terminal
// outcome (the chaos driver's settling condition).
func (s *Server) PendingRepairs() int {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	return len(s.repairQ) + s.repairBusy
}

// RevalidateFlows re-checks every committed flow's embedding against the
// current residual network, net of the flow's own reservations. It
// returns the IDs that no longer validate — after a quiescent repair
// pass this must be empty, which is the chaos invariant.
func (s *Server) RevalidateFlows() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.flows.Keys()
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	var bad []int64
	for _, id := range ids {
		fl, ok := s.flows.Get(id)
		if !ok {
			continue
		}
		probe := *fl.Problem
		probe.Ledger = s.ledger.Overlay()
		err := core.Release(&probe, fl.Solution)
		if err == nil {
			err = core.Validate(&probe, fl.Solution)
		}
		probe.Ledger.Discard()
		if err != nil {
			bad = append(bad, id)
		}
	}
	return bad
}

func faultToWire(f network.Fault) FaultRequest {
	w := FaultRequest{Kind: f.Kind.String()}
	switch f.Kind {
	case network.FaultNodeDown:
		w.Node = int(f.Node)
	case network.FaultLinkDegrade:
		w.Link, w.Fraction = int(f.Link), f.Fraction
	default:
		w.Link = int(f.Link)
	}
	return w
}

func faultFromWire(w FaultRequest) (network.Fault, error) {
	kind, err := faults.ParseKind(w.Kind)
	if err != nil {
		return network.Fault{}, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	f := network.Fault{Kind: kind}
	switch kind {
	case network.FaultNodeDown:
		f.Node = graph.NodeID(w.Node)
	case network.FaultLinkDegrade:
		f.Link, f.Fraction = graph.EdgeID(w.Link), w.Fraction
	default:
		f.Link = graph.EdgeID(w.Link)
	}
	return f, nil
}

// enqueueRepairs hands stranded flows to the repair controller. The
// queue is unbounded on purpose: a large fault may strand many flows and
// dropping any would leak their "repairing" state forever.
func (s *Server) enqueueRepairs(tasks []*repairTask) {
	if len(tasks) == 0 {
		return
	}
	s.repairMu.Lock()
	s.repairQ = append(s.repairQ, tasks...)
	s.repairMu.Unlock()
	select {
	case s.repairKick <- struct{}{}:
	default:
	}
}

func (s *Server) popRepair() *repairTask {
	s.repairMu.Lock()
	defer s.repairMu.Unlock()
	if len(s.repairQ) == 0 {
		return nil
	}
	t := s.repairQ[0]
	s.repairQ = s.repairQ[1:]
	s.repairBusy++
	return t
}

func (s *Server) repairDone() {
	s.repairMu.Lock()
	s.repairBusy--
	s.repairMu.Unlock()
}

// repairLoop is the single repair controller: it drains the stranded-flow
// queue strictly one flow at a time (deterministic ordering, and repairs
// never compete with each other for capacity), re-embedding each through
// the ordinary admission pipeline. Backoff between attempts is
// exponential with a deterministic seeded jitter, so two same-seed chaos
// runs sleep identically.
func (s *Server) repairLoop() {
	defer s.repairWG.Done()
	rng := rand.New(rand.NewSource(s.cfg.Seed ^ 0x7265706169727321)) // "repairs!"
	for {
		select {
		case <-s.repairStop:
			return
		case <-s.repairKick:
		}
		for {
			t := s.popRepair()
			if t == nil {
				break
			}
			if t.reprotect {
				s.reprotectOne(t, rng)
			} else {
				s.repairOne(t, rng)
			}
			s.repairDone()
		}
	}
}

// repairOne drives one stranded flow to a terminal state: re-registered
// under its original ID on success, an evicted tombstone on exhaustion.
// Only attempts the pipeline actually judged count against
// RepairRetries: an admission-level rejection (queue full, request
// timeout) says the server was busy, not that the flow is unembeddable,
// so those retry after backoff under their own RepairAdmitRetries cap —
// a transiently overloaded server never evicts a repairable flow without
// a single re-embed ever executing.
func (s *Server) repairOne(t *repairTask, rng *rand.Rand) {
	var lastErr error
	attempts := 0 // re-embed attempts the pipeline judged
	admits := 0   // admission-level rejections absorbed
	for try := 0; ; try++ {
		if try > 0 {
			if !s.repairBackoff(try, rng) {
				return // stopping; the flow keeps its repairing state
			}
		}
		if s.repairAbandoned(t.id) {
			return
		}
		err := s.repairAttempt(t, try)
		if err == nil {
			s.mu.Lock()
			s.repairLog = append(s.repairLog, RepairEvent{Flow: t.id, Fault: t.fault, Outcome: "repaired", Attempts: attempts + 1})
			delete(s.dropped, t.id)
			s.mu.Unlock()
			repairDur := time.Since(t.strandedAt)
			s.journal.Append(journal.Event{
				Type: journal.TypeRepaired, Flow: t.id, Attempt: attempts + 1,
				Seconds: repairDur.Seconds(), Detail: t.fault.String(),
			})
			telemetry.RecordServerStage(telemetry.StageRepair, repairDur)
			telemetry.RecordRepair("repaired")
			// A repaired protected flow comes back unprotected; re-arm its
			// backup in the background.
			if t.info.Protection == ProtectionBackup {
				s.enqueueReprotect(t.id, t.fault, t.info)
			}
			return
		}
		lastErr = err
		if errors.Is(err, ErrDraining) {
			return // stopping; the flow keeps its repairing state
		}
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTimeout) {
			if admits++; admits <= s.cfg.RepairAdmitRetries {
				continue
			}
			// Admission stayed closed through every backoff; the eviction
			// below carries the queue condition as last_error, not a bogus
			// infeasibility, and Attempts reflects real embed attempts.
			break
		}
		if attempts++; attempts >= s.cfg.RepairRetries {
			break
		}
	}
	s.mu.Lock()
	if s.dropped[t.id] {
		// Released by its owner while we were retrying: the meta entry is
		// already gone; no tombstone, no log entry.
		delete(s.dropped, t.id)
		s.mu.Unlock()
		return
	}
	var cause string
	var ticket uint64
	if info, ok := s.meta[t.id]; ok && info.State == FlowStateRepairing {
		info.State = FlowStateEvicted
		if lastErr != nil {
			info.LastError = lastErr.Error()
		}
		// A flow that held a backup and still could not be saved lost its
		// protection, not just a re-embed race; the tombstone says so.
		if info.Protection == ProtectionBackup {
			info.Cause = CauseProtectionLost
			cause = info.Cause
		}
		s.meta[t.id] = info
		if payload, merr := json.Marshal(walEvict{LastError: info.LastError, Cause: info.Cause}); merr == nil {
			ticket = s.walEnqueueLocked(wal.TypeEvict, t.id, payload)
		}
	}
	delete(s.repairFault, t.id)
	s.repairLog = append(s.repairLog, RepairEvent{Flow: t.id, Fault: t.fault, Outcome: "evicted", Attempts: attempts})
	delete(s.dropped, t.id)
	s.mu.Unlock()
	s.walWait(ticket)
	repairDur := time.Since(t.strandedAt)
	detail := t.fault.String()
	if cause != "" {
		detail += " (" + cause + ")"
	}
	ev := journal.Event{
		Type: journal.TypeEvicted, Flow: t.id, Attempt: attempts,
		Seconds: repairDur.Seconds(), Detail: detail,
	}
	if lastErr != nil {
		ev.Err = lastErr.Error()
	}
	s.journal.Append(ev)
	telemetry.RecordServerStage(telemetry.StageRepair, repairDur)
	telemetry.RecordRepair("evicted")
}

// repairBackoff sleeps the capped exponential delay for the given retry
// (1-based), with deterministic jitter in [0, delay/2]. It returns false
// if the server began stopping mid-sleep.
func (s *Server) repairBackoff(retry int, rng *rand.Rand) bool {
	delay := s.cfg.RepairBackoff << (retry - 1)
	if delay > s.cfg.RepairBackoffCap || delay <= 0 {
		delay = s.cfg.RepairBackoffCap
	}
	delay += time.Duration(rng.Int63n(int64(delay/2) + 1))
	timer := time.NewTimer(delay)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-s.repairStop:
		return false
	}
}

// repairAbandoned reports whether the flow was released by its owner (or
// the server began draining) while waiting for repair; either way the
// repairing state is resolved here.
func (s *Server) repairAbandoned(id int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped[id] {
		delete(s.dropped, id)
		return true
	}
	return false
}

// repairAttempt runs one re-embed through the admission pipeline and
// waits for its outcome. The job carries the repair marker, so the
// commit loop re-registers the flow under its original ID instead of
// allocating a new one; the job also inherits that ID, so every
// pipeline journal event of the re-embed lands on the flow's timeline.
func (s *Server) repairAttempt(t *repairTask, try int) error {
	dag, alg, embed, embedCtx, _, err := s.prepare(FlowRequest{
		SFC: t.info.SFC, Src: t.info.Src, Dst: t.info.Dst,
		Rate: t.info.Rate, Size: t.info.Size, Alg: t.info.Alg,
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.RequestTimeout)
	defer cancel()
	j := &job{
		ctx: ctx, id: t.id,
		req: FlowRequest{Src: t.info.Src, Dst: t.info.Dst, Rate: t.info.Rate, Size: t.info.Size},
		dag: dag, alg: alg, embed: embed, embedCtx: embedCtx,
		begin: time.Now(), done: make(chan jobResult, 1),
		repair: t,
	}
	telemetry.RecordRepairAttempt()
	s.journal.Append(journal.Event{
		Type: journal.TypeRepairAttempt, Flow: t.id, Alg: alg, Attempt: try + 1,
		Detail: t.fault.String(),
	})
	return s.admitRepairJob(j, "repair re-embed")
}

// admitRepairJob runs a controller-issued job (repair or re-protect)
// through the admission pipeline and waits for its outcome.
func (s *Server) admitRepairJob(j *job, detail string) error {
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		return ErrDraining
	}
	s.inflight.Add(1)
	enqueued := time.Now() // stamped before the send, as in Submit
	j.enqueuedAt = enqueued
	select {
	case s.admit <- j:
		s.drainMu.RUnlock()
		s.journal.Append(journal.Event{
			Time: enqueued, Type: journal.TypeEnqueue, Flow: j.id, Alg: j.alg,
			Detail: detail,
		})
		telemetry.SetServerQueueDepth(len(s.admit))
	default:
		s.inflight.Done()
		s.drainMu.RUnlock()
		return ErrQueueFull
	}

	var r jobResult
	select {
	case r = <-j.done:
	case <-j.ctx.Done():
		if j.finished.CompareAndSwap(false, true) {
			return fmt.Errorf("%w during repair", ErrTimeout)
		}
		r = <-j.done
	}
	// The controller treats a nil error as "repaired": like any
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

// transition flips the breaker to the given state and notifies the hook.
// Callers hold mu.
func (b *breaker) transition(state int) {
	b.state = state
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
		telemetry.SetBreakerState(1, false)
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
			telemetry.SetBreakerState(0, false)
		} else {
			b.transition(2)
			b.openedAt = now
			telemetry.SetBreakerState(2, true)
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
			telemetry.SetBreakerState(2, true)
		}
	}
}
