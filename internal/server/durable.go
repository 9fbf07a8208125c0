// Durability: the server side of internal/wal. Every transition the flow
// state machine applies is framed into one record under s.mu (transitLocked),
// so the log's order IS the state's mutation order; recovery decodes the
// tail and feeds it to the same flowstate.Apply, which therefore rebuilds
// every residual bit-for-bit (the float-exact restore discipline from the
// fault layer: identical operations in identical order on identical
// starting values). Snapshots capture the raw accumulated ledger sums
// (network.LedgerState), never re-derived values, so a fallback to an
// older snapshot plus a longer replay lands on the same bits too.
package server

import (
	"encoding/json"
	"fmt"
	"time"

	"dagsfc/internal/flowstate"
	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// transitLocked is the one way the live state changes: Apply the
// transition, move the gauges it moved, and frame its WAL record. Caller
// holds s.mu — that lock hold is what makes log order equal mutation
// order. The returned ticket is 0 when nothing was logged (no WAL, WAL
// broken, or a transition that changes nothing durable). Nothing is forced
// to disk here: whoever acknowledges the transition calls walWait on the
// ticket after releasing s.mu, so the fsync happens outside the lock and
// concurrent acknowledgments share it.
func (s *Server) transitLocked(t flowstate.Transition) (flowstate.Change, uint64, error) {
	ch, err := s.state.Apply(t)
	if err != nil {
		return ch, 0, err
	}
	telemetry.SetFlowState(ch.Active, ch.Backups, ch.Faults)
	if s.wal == nil || s.walBroken.Load() {
		return ch, 0, nil
	}
	rec, ok, err := s.walEnc.Encode(t, ch)
	if err != nil {
		// Applied but not loggable: a later record or snapshot would be
		// replayed without this one, so durability stops here, loudly.
		s.walFail("encode", err)
		return ch, 0, nil
	}
	if !ok {
		return ch, 0, nil
	}
	ticket, err := s.wal.Enqueue(rec)
	if err != nil {
		s.walFail("append", err)
		return ch, 0, nil
	}
	if n := s.walAppends.Add(1); s.cfg.WALSnapshotEvery > 0 && n >= int64(s.cfg.WALSnapshotEvery) {
		s.walSnapshotLocked()
	}
	return ch, ticket, nil
}

// walWait is the durability barrier: it returns once the ticket's record —
// and with it every record enqueued before — is on stable storage per the
// sync policy. Call it without s.mu, before acknowledging the mutation. A
// zero ticket (no WAL, or broken) returns at once.
func (s *Server) walWait(ticket uint64) {
	if ticket == 0 || s.walBroken.Load() {
		return
	}
	if err := s.wal.WaitDurable(ticket); err != nil {
		s.walFail("sync", err)
	}
}

// walFail latches a disk error. The server keeps serving from memory —
// taking it down would strand every flow it holds — but it says so: no
// further records are written, dagsfc_wal_broken reads 1 and /healthz
// answers 503 until an operator restarts it on a healthy disk.
func (s *Server) walFail(op string, err error) {
	telemetry.RecordWALError()
	if s.walBroken.CompareAndSwap(false, true) {
		telemetry.SetWALBroken(true)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Error("wal "+op+" failed; durability disabled", "err", err)
		}
	}
}

// walSnapshotLocked writes a full-state snapshot at the current log
// watermark and resets the append-count trigger. Caller holds s.mu, so no
// transition can slip between exporting the state and stamping the
// watermark.
func (s *Server) walSnapshotLocked() {
	if s.wal == nil || s.walBroken.Load() {
		return
	}
	snap := s.state.Export()
	snap.JournalSeq = s.journal.Events()
	payload, err := json.Marshal(snap)
	if err == nil {
		err = s.wal.WriteSnapshot(payload)
	}
	if err != nil {
		s.walFail("snapshot", err)
		return
	}
	s.walAppends.Store(0)
}

// recoveredState is what recovery defers until the server is running:
// TTLs to re-arm, flows whose TTL fired while the server was down
// (released through the normal expiry path, so the release is itself
// logged), and flows that were waiting for the restore controller at the
// crash.
type recoveredState struct {
	live     []FlowInfo
	expired  []int64
	restores []*repairTask
}

// recover rebuilds the server's state from what wal.Open found on disk:
// import the snapshot, replay the tail through the same Apply live traffic
// uses, and snapshot the result. It runs before the server starts, so no
// locking is needed. Any inconsistency — a replayed placement that no
// longer fits, a record whose precondition does not hold — is
// unrecoverable: the caller must refuse to start rather than serve from a
// silently wrong state.
func (s *Server) recover(rec *wal.Recovery) (*recoveredState, error) {
	var snap flowstate.Snapshot
	if rec.Snapshot != nil {
		err := json.Unmarshal(rec.Snapshot, &snap)
		if err != nil {
			return nil, fmt.Errorf("%w: undecodable snapshot payload: %v", wal.ErrUnrecoverable, err)
		}
		if s.state, err = flowstate.Import(s.net, snap); err != nil {
			return nil, fmt.Errorf("%w: %v", wal.ErrUnrecoverable, err)
		}
	}
	for _, r := range rec.Tail {
		t, err := flowstate.Decode(s.net, r)
		if err == nil {
			_, err = s.state.Apply(t)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: replaying seq %d (%s, flow %d): %v",
				wal.ErrUnrecoverable, r.Seq, r.Type, r.Flow, err)
		}
	}
	s.nextID.Store(s.state.NextID())
	telemetry.RecordWALReplay(len(rec.Tail))
	// Each process journals from a multiple of 2^32 of its own: the
	// snapshot's seq lies in the previous process's range, so the next
	// multiple is above every seq it issued, and the snapshot written here,
	// before anything is journaled, hands this base to the next recovery.
	s.journal.Resume((snap.JournalSeq>>32 + 1) << 32)
	s.walSnapshotLocked()

	// Classify the recovered flows, in ID order for determinism:
	// expired-while-down flows are released after the server starts
	// (never resurrected past their deadline); whatever a flow lacks — the
	// primary of a stranded flow, the backup of a protected flow the kill
	// caught between failover and re-protect — goes back to the restore
	// controller.
	out := &recoveredState{}
	now := time.Now()
	for _, info := range s.state.Flows() {
		ttl := info.State == FlowStateActive && info.ExpiresAt != nil
		if ttl && !info.ExpiresAt.After(now) {
			out.expired = append(out.expired, info.ID)
			continue
		}
		if ttl {
			out.live = append(out.live, info)
		}
		if need, fault := s.state.Lacks(info.ID); need != flowstate.NeedNothing {
			out.restores = append(out.restores, &repairTask{id: info.ID, fault: fault, info: info, strandedAt: now})
		}
	}
	return out, nil
}

// finishRecovery runs after the server is up: reschedule live TTLs,
// release flows that expired while the server was down (through the
// ordinary expiry path, so the release is journaled AND logged — they are
// gone durably, not resurrected), and hand pending restores back to the
// controller.
func (s *Server) finishRecovery(rec *recoveredState) {
	for _, info := range rec.live {
		s.timeline.Schedule(info.ID, *info.ExpiresAt)
	}
	for _, id := range rec.expired {
		_, _ = s.release(id, flowstate.Expire)
	}
	s.timeline.Enqueue(rec.restores...)
}

// Crash simulates a SIGKILL for the durability tests: it stops the server
// WITHOUT the final snapshot, the WAL flush or the fsync a graceful Drain
// performs — whatever sat in the WAL's user-space buffer is lost, exactly
// like bytes a killed process never wrote. Under the per-commit sync
// policy every acknowledged mutation was already on stable storage, so a
// subsequent New over the same WAL dir recovers it all. In-flight requests
// are allowed to answer first so no goroutines leak into the next test.
func (s *Server) Crash() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.inflight.Wait()
	s.stop((*wal.Log).Abandon)
}
