// Durability: the server side of internal/wal. Every state mutation —
// commit, release, TTL expiry, eviction, fault apply/restore, stranding —
// enqueues one record under s.mu, so the log's order IS the ledger's
// mutation order; replaying the tail through the same core.Commit /
// core.Release machinery therefore rebuilds every residual bit-for-bit
// (the float-exact restore discipline from the fault layer: identical
// operations in identical order on identical starting values). Snapshots
// capture the raw accumulated ledger sums (network.LedgerState), never
// re-derived values, so a fallback to an older snapshot plus a longer
// replay lands on the same bits too.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// walFlow is the TypeCommit payload: everything needed to re-register the
// flow — its wire description plus the exact placement whose reservations
// the replay re-commits. Backup is set for protected admissions: the
// disjoint second placement, re-committed under the same flow ID.
type walFlow struct {
	Info   FlowInfo       `json:"info"`
	Sol    *core.Solution `json:"sol"`
	Backup *core.Solution `json:"backup,omitempty"`
}

// walBackup is the TypeBackup payload: a backup placement the re-protect
// controller reserved for an already-committed flow, plus its cost.
type walBackup struct {
	Sol  *core.Solution `json:"sol"`
	Cost Cost           `json:"cost"`
}

// walSnapshot is the snapshot payload: the full server state at the
// watermark. The ledger is raw accumulated usage; active faults are
// re-applied on load (quarantine amounts are pure functions of the
// immutable network, so re-applying reconstructs the table exactly).
type walSnapshot struct {
	NextID         int64               `json:"next_id"`
	Flows          []walSnapFlow       `json:"flows,omitempty"`
	Ledger         network.LedgerState `json:"ledger"`
	Faults         []FaultRequest      `json:"faults,omitempty"`
	FaultsApplied  int                 `json:"faults_applied,omitempty"`
	FaultsRestored int                 `json:"faults_restored,omitempty"`
	JournalSeq     uint64              `json:"journal_seq,omitempty"`
}

// walSnapFlow is one flow in a snapshot. Sol is set for active flows
// (their reservations are in the ledger state); Backup for protected
// flows with a live backup (its reservations are in the ledger state
// too); Fault is set for repairing flows so recovery can re-enqueue the
// repair; evicted tombstones carry none of them.
type walSnapFlow struct {
	Info   FlowInfo       `json:"info"`
	Sol    *core.Solution `json:"sol,omitempty"`
	Backup *core.Solution `json:"backup,omitempty"`
	Fault  *FaultRequest  `json:"fault,omitempty"`
}

// walEvict is the TypeEvict payload.
type walEvict struct {
	LastError string `json:"last_error,omitempty"`
	Cause     string `json:"cause,omitempty"`
}

// walEnqueueLocked frames one state-mutating record into the log's buffer
// and returns its ticket (0 when there is no WAL or it is broken). Caller
// holds s.mu — that lock hold is what makes log order equal mutation
// order. Nothing is forced to disk here: whoever acknowledges the mutation
// calls walWait on the ticket after releasing s.mu, so the fsync happens
// outside the lock and concurrent acknowledgments share it.
func (s *Server) walEnqueueLocked(t wal.Type, flow int64, payload []byte) uint64 {
	ticket := s.walEnqueue(t, flow, payload)
	if ticket != 0 && s.cfg.WALSnapshotEvery > 0 && s.walAppends.Load() >= int64(s.cfg.WALSnapshotEvery) {
		s.walSnapshotLocked()
	}
	return ticket
}

func (s *Server) walEnqueue(t wal.Type, flow int64, payload []byte) uint64 {
	if s.wal == nil || s.walBroken.Load() {
		return 0
	}
	seq, err := s.wal.Enqueue(wal.Record{Type: t, Flow: flow, Data: payload})
	if err != nil {
		s.walFail("append", err)
		return 0
	}
	s.walAppends.Add(1)
	return seq
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

// walCommitLocked enqueues a flow's commit record, encoding the payload
// into the server's reused buffer (Enqueue copies it into the frame before
// returning). Caller holds s.mu.
func (s *Server) walCommitLocked(id int64, wf walFlow) uint64 {
	if s.wal == nil || s.walBroken.Load() {
		return 0
	}
	s.walBuf.Reset()
	if err := s.walEnc.Encode(wf); err != nil {
		return 0
	}
	// Encode ends the value with a newline json.Marshal would not write.
	return s.walEnqueueLocked(wal.TypeCommit, id, bytes.TrimSuffix(s.walBuf.Bytes(), []byte("\n")))
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

// walAdmit records an allocated flow ID (the high-water mark recovery
// resumes allocation above) and returns the record's ticket. Admission
// does not hold s.mu: admit records are order-insensitive — only the max
// matters. An acceptance never waits on this ticket (its commit record
// comes later in the same log, so that record's fsync covers it); a
// rejection does, before it answers. admitMu orders the record against
// snapshots: an ID allocated before a snapshot read next_id is in the
// snapshot, and one allocated after has its admit record past the
// snapshot's watermark, where replay finds it.
func (s *Server) walAdmit(id int64) uint64 {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.walEnqueue(wal.TypeAdmit, id, nil)
}

// walSnapshotLocked writes a full-state snapshot at the current log
// watermark and resets the append-count trigger. Caller holds s.mu, so no
// state mutation can slip between exporting the state and stamping the
// watermark; admitMu keeps admit records out of that window too.
func (s *Server) walSnapshotLocked() {
	if s.wal == nil || s.walBroken.Load() {
		return
	}
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	payload, err := json.Marshal(s.exportSnapshotLocked())
	if err == nil {
		err = s.wal.WriteSnapshot(payload)
	}
	if err != nil {
		s.walFail("snapshot", err)
		return
	}
	s.walAppends.Store(0)
}

func (s *Server) exportSnapshotLocked() walSnapshot {
	snap := walSnapshot{
		NextID:         s.nextID.Load(),
		Ledger:         s.ledger.ExportState(),
		FaultsApplied:  s.faultsApplied,
		FaultsRestored: s.faultsRestored,
		JournalSeq:     s.journal.Events(),
	}
	for _, f := range s.activeFaults {
		snap.Faults = append(snap.Faults, faultToWire(f))
	}
	ids := make([]int64, 0, len(s.meta))
	for id := range s.meta {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	for _, id := range ids {
		sf := walSnapFlow{Info: s.meta[id]}
		if fl, ok := s.flows.Get(id); ok {
			sf.Sol = fl.Solution
		}
		if b, ok := s.backups[id]; ok {
			sf.Backup = b
		}
		if fw, ok := s.repairFault[id]; ok {
			sf.Fault = &fw
		}
		snap.Flows = append(snap.Flows, sf)
	}
	return snap
}

// recoveredState is what recovery defers until the pipeline is running:
// flows whose TTL fired while the server was down (released through the
// normal expiry path, so the release is itself logged), and repairs that
// were pending at the crash.
type recoveredState struct {
	expired []int64
	repairs []*repairTask
}

// problemFor rebuilds a flow's core.Problem from its wire description,
// bound to the live ledger.
func (s *Server) problemFor(info FlowInfo) (*core.Problem, error) {
	dag, err := sfc.Parse(info.SFC)
	if err != nil {
		return nil, fmt.Errorf("flow %d: bad sfc %q: %v", info.ID, info.SFC, err)
	}
	return &core.Problem{
		Net: s.net, Ledger: s.ledger, SFC: dag,
		Src: graph.NodeID(info.Src), Dst: graph.NodeID(info.Dst),
		Rate: info.Rate, Size: info.Size,
	}, nil
}

// recover rebuilds the server's state from what wal.Open found on disk:
// import the snapshot, then replay the tail through the same commit /
// release / fault machinery live traffic uses. It runs before the
// pipeline starts, so no locking is needed. Any inconsistency — a replay
// commit that fails validation, a record referencing an impossible state
// — is unrecoverable: the caller must refuse to start rather than serve
// from a silently wrong state.
func (s *Server) recover(rec *wal.Recovery) (*recoveredState, error) {
	if rec.Snapshot != nil {
		var snap walSnapshot
		if err := json.Unmarshal(rec.Snapshot, &snap); err != nil {
			return nil, fmt.Errorf("%w: undecodable snapshot payload: %v", wal.ErrUnrecoverable, err)
		}
		root, err := network.NewLedgerFromState(s.net, snap.Ledger)
		if err != nil {
			return nil, fmt.Errorf("%w: snapshot ledger: %v", wal.ErrUnrecoverable, err)
		}
		for _, fw := range snap.Faults {
			f, err := faultFromWire(fw)
			if err == nil {
				err = root.ApplyFault(f)
			}
			if err != nil {
				return nil, fmt.Errorf("%w: snapshot fault %+v: %v", wal.ErrUnrecoverable, fw, err)
			}
			s.activeFaults = append(s.activeFaults, f)
		}
		s.ledger = root.Overlay()
		s.faultsApplied = snap.FaultsApplied
		s.faultsRestored = snap.FaultsRestored
		for _, sf := range snap.Flows {
			info := sf.Info
			if sf.Sol != nil {
				p, err := s.problemFor(info)
				if err != nil {
					return nil, fmt.Errorf("%w: snapshot %v", wal.ErrUnrecoverable, err)
				}
				s.standFlow(info.ID, p, sf.Sol)
				// The backup's reservations are already inside the snapshot's
				// raw ledger sums; only the placement map needs restoring.
				if sf.Backup != nil {
					s.backups[info.ID] = sf.Backup
				}
			}
			if sf.Fault != nil {
				s.repairFault[info.ID] = *sf.Fault
			}
			s.meta[info.ID] = info
		}
		if snap.NextID > s.nextID.Load() {
			s.nextID.Store(snap.NextID)
		}
		s.journal.Resume(snap.JournalSeq)
	}
	for _, r := range rec.Tail {
		if err := s.replayRecord(r); err != nil {
			return nil, fmt.Errorf("%w: replaying seq %d (%s, flow %d): %v",
				wal.ErrUnrecoverable, r.Seq, r.Type, r.Flow, err)
		}
	}
	telemetry.RecordWALReplay(len(rec.Tail))

	// Classify the recovered flows: expired-while-down flows are released
	// after the pipeline starts (never resurrected past their deadline),
	// repairing flows go back to the repair controller. Both in ID order
	// for determinism.
	out := &recoveredState{}
	ids := make([]int64, 0, len(s.meta))
	for id := range s.meta {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, k int) bool { return ids[i] < ids[k] })
	now := time.Now()
	for _, id := range ids {
		info := s.meta[id]
		switch {
		case info.State == FlowStateActive && info.ExpiresAt != nil && !info.ExpiresAt.After(now):
			out.expired = append(out.expired, id)
		case info.State == FlowStateRepairing:
			fw, ok := s.repairFault[id]
			var f network.Fault
			if ok {
				f, _ = faultFromWire(fw)
			}
			out.repairs = append(out.repairs, &repairTask{
				id: id, fault: f, info: info, strandedAt: now,
			})
		case info.State == FlowStateActive && info.Protection == ProtectionBackup && !info.BackupActive:
			// A protected flow caught between failover (or backup loss) and
			// the re-protect commit: the kill landed mid-flight. Re-derive
			// the pending re-protect from the durable state.
			if _, has := s.backups[id]; !has {
				out.repairs = append(out.repairs, &repairTask{
					id: id, info: info, strandedAt: now, reprotect: true,
				})
			}
		}
	}
	return out, nil
}

// replayRecord applies one tail record, mirroring exactly what the live
// path did when it appended it.
func (s *Server) replayRecord(r wal.Record) error {
	switch r.Type {
	case wal.TypeAdmit:
		if r.Flow > s.nextID.Load() {
			s.nextID.Store(r.Flow)
		}
	case wal.TypeCommit:
		var wf walFlow
		if err := json.Unmarshal(r.Data, &wf); err != nil {
			return err
		}
		if wf.Sol == nil {
			return fmt.Errorf("commit record without a solution")
		}
		p, err := s.problemFor(wf.Info)
		if err != nil {
			return err
		}
		if _, err := core.Commit(p, wf.Sol); err != nil {
			return fmt.Errorf("re-commit: %v", err)
		}
		if wf.Backup != nil {
			if _, err := core.Commit(p, wf.Backup); err != nil {
				return fmt.Errorf("re-commit backup: %v", err)
			}
			s.backups[wf.Info.ID] = wf.Backup
		}
		s.standFlow(wf.Info.ID, p, wf.Sol)
		s.meta[wf.Info.ID] = wf.Info
		delete(s.repairFault, wf.Info.ID)
		if wf.Info.ID > s.nextID.Load() {
			s.nextID.Store(wf.Info.ID)
		}
	case wal.TypeRelease, wal.TypeExpire:
		if fl, ok := s.flows.Release(r.Flow); ok {
			fl.Problem.Ledger = s.ledger
			_ = core.Release(fl.Problem, fl.Solution)
			if b, has := s.backups[r.Flow]; has {
				_ = core.Release(fl.Problem, b)
				delete(s.backups, r.Flow)
			}
		}
		delete(s.meta, r.Flow)
		delete(s.repairFault, r.Flow)
	case wal.TypeEvict:
		var ev walEvict
		if len(r.Data) > 0 {
			if err := json.Unmarshal(r.Data, &ev); err != nil {
				return err
			}
		}
		if info, ok := s.meta[r.Flow]; ok {
			info.State = FlowStateEvicted
			info.LastError = ev.LastError
			info.Cause = ev.Cause
			s.meta[r.Flow] = info
		}
		delete(s.repairFault, r.Flow)
	case wal.TypeFaultApply:
		f, err := s.faultFromRecord(r)
		if err != nil {
			return err
		}
		if err := s.ledger.ApplyFault(f); err != nil {
			return fmt.Errorf("re-apply fault: %v", err)
		}
		s.activeFaults = append(s.activeFaults, f)
		s.faultsApplied++
	case wal.TypeFaultRestore:
		f, err := s.faultFromRecord(r)
		if err != nil {
			return err
		}
		if err := s.ledger.RestoreFault(f); err != nil {
			return fmt.Errorf("re-restore fault: %v", err)
		}
		for i, af := range s.activeFaults {
			if af == f {
				s.activeFaults = append(s.activeFaults[:i], s.activeFaults[i+1:]...)
				break
			}
		}
		s.faultsRestored++
	case wal.TypeStrand:
		var fw FaultRequest
		if err := json.Unmarshal(r.Data, &fw); err != nil {
			return err
		}
		if fl, ok := s.flows.Release(r.Flow); ok {
			fl.Problem.Ledger = s.ledger
			_ = core.Release(fl.Problem, fl.Solution)
			if b, has := s.backups[r.Flow]; has {
				_ = core.Release(fl.Problem, b)
				delete(s.backups, r.Flow)
			}
		}
		if info, ok := s.meta[r.Flow]; ok {
			info.State = FlowStateRepairing
			info.BackupActive = false
			info.BackupCost = Cost{}
			s.meta[r.Flow] = info
		}
		s.repairFault[r.Flow] = fw
	case wal.TypeBackup:
		var wb walBackup
		if err := json.Unmarshal(r.Data, &wb); err != nil {
			return err
		}
		if wb.Sol == nil {
			return fmt.Errorf("backup record without a solution")
		}
		fl, ok := s.flows.Get(r.Flow)
		if !ok {
			return fmt.Errorf("backup record for unknown flow")
		}
		fl.Problem.Ledger = s.ledger
		if _, err := core.Commit(fl.Problem, wb.Sol); err != nil {
			return fmt.Errorf("re-commit backup: %v", err)
		}
		s.backups[r.Flow] = wb.Sol
		info := s.meta[r.Flow]
		info.BackupActive = true
		info.BackupCost = wb.Cost
		s.meta[r.Flow] = info
	case wal.TypeFailover:
		fl, ok := s.flows.Release(r.Flow)
		if !ok {
			return fmt.Errorf("failover record for unknown flow")
		}
		b, has := s.backups[r.Flow]
		if !has {
			return fmt.Errorf("failover record without a live backup")
		}
		fl.Problem.Ledger = s.ledger
		_ = core.Release(fl.Problem, fl.Solution)
		s.standFlow(r.Flow, fl.Problem, b)
		delete(s.backups, r.Flow)
		info := s.meta[r.Flow]
		info.Cost = info.BackupCost
		info.BackupCost = Cost{}
		info.BackupActive = false
		info.Failovers++
		s.meta[r.Flow] = info
	case wal.TypeBackupLoss:
		fl, ok := s.flows.Get(r.Flow)
		b, has := s.backups[r.Flow]
		if !ok || !has {
			return fmt.Errorf("backup-loss record without a live backup")
		}
		fl.Problem.Ledger = s.ledger
		_ = core.Release(fl.Problem, b)
		delete(s.backups, r.Flow)
		info := s.meta[r.Flow]
		info.BackupActive = false
		info.BackupCost = Cost{}
		s.meta[r.Flow] = info
	default:
		return fmt.Errorf("unknown record type %d", uint8(r.Type))
	}
	return nil
}

func (s *Server) faultFromRecord(r wal.Record) (network.Fault, error) {
	var fw FaultRequest
	if err := json.Unmarshal(r.Data, &fw); err != nil {
		return network.Fault{}, err
	}
	return faultFromWire(fw)
}

// finishRecovery runs after the pipeline is up: reschedule live TTLs,
// release flows that expired while the server was down (through the
// ordinary expiry path, so the release is journaled AND logged — they are
// gone durably, not resurrected), and hand pending repairs back to the
// controller.
func (s *Server) finishRecovery(rec *recoveredState) {
	expired := make(map[int64]bool, len(rec.expired))
	for _, id := range rec.expired {
		expired[id] = true
	}
	s.mu.Lock()
	type sched struct {
		id int64
		at time.Time
	}
	var live []sched
	for id, info := range s.meta {
		if info.State == FlowStateActive && info.ExpiresAt != nil && !expired[id] {
			live = append(live, sched{id, *info.ExpiresAt})
		}
	}
	s.mu.Unlock()
	sort.Slice(live, func(i, k int) bool { return live[i].id < live[k].id })
	for _, l := range live {
		s.wheel.Schedule(l.id, l.at)
	}
	for _, id := range rec.expired {
		_, _ = s.release(id, "expired")
	}
	s.enqueueRepairs(rec.repairs)
	telemetry.SetServerActiveFlows(s.ActiveFlows())
	s.mu.Lock()
	nb := len(s.backups)
	s.mu.Unlock()
	telemetry.SetBackupsActive(nb)
}

// Crash simulates a SIGKILL for tests and the chaos kill-restart mode: it
// stops the pipeline WITHOUT the final snapshot, the WAL flush or the
// fsync a graceful Drain performs — whatever sat in the WAL's user-space
// buffer is lost, exactly like bytes a killed process never wrote. Under
// the per-commit sync policy every acknowledged mutation was already on
// stable storage, so a subsequent New over the same WAL dir recovers it
// all. Queued-but-unacknowledged requests are allowed to settle first so
// no goroutines leak into the next test.
func (s *Server) Crash() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.stopOnce.Do(func() {
		close(s.repairStop)
		s.repairWG.Wait()
		close(s.admit)
		s.workerWG.Wait()
		close(s.commit)
		s.commitWG.Wait()
		s.wheel.Stop()
		if s.wal != nil {
			s.wal.Abandon()
		}
	})
}
