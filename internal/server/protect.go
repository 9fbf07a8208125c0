// Protection: the proactive half of survivability. A flow admitted with
// Protection == ProtectionBackup gets a second, disjoint embedding
// computed at admission and reserved in the ledger under the same flow
// ID. Disjointness is seeded from the primary's placement through the
// core search's ban sets: link-disjoint always (every substrate edge the
// primary traverses is banned), node-disjoint best-effort (hosting and
// transit nodes banned too, falling back to link-disjoint-only when the
// substrate cannot afford it). When a fault kills the primary, ApplyFault
// promotes the backup in place — no re-embed, no strand — and hands the
// flow to the re-protect controller, which reserves a fresh backup in the
// background through the repair controller's backoff machinery. A flow
// whose re-protects are exhausted keeps serving on its primary,
// unprotected, rather than being evicted.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/graph"
	"dagsfc/internal/journal"
	"dagsfc/internal/network"
	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// backupBans derives the search-time ban sets for a backup embedding from
// its primary: every substrate edge the primary traverses (link
// disjointness), and every node it hosts on or transits (node
// disjointness) except the flow's own endpoints, which both placements
// necessarily share.
func backupBans(net *network.Network, primary *core.Solution, src, dst graph.NodeID) (map[graph.EdgeID]bool, map[graph.NodeID]bool) {
	edges := make(map[graph.EdgeID]bool)
	nodes := make(map[graph.NodeID]bool)
	primary.VisitEdges(func(e graph.EdgeID) {
		edges[e] = true
		ed := net.G.Edge(e)
		nodes[ed.A] = true
		nodes[ed.B] = true
	})
	primary.VisitNodes(func(v graph.NodeID) { nodes[v] = true })
	delete(nodes, src)
	delete(nodes, dst)
	return edges, nodes
}

// embedBackup searches for a backup embedding disjoint from primary. The
// problem's ledger must already carry the primary's reservations, so the
// backup's capacity is over and above the primary's. Node-disjoint is
// tried first; if the substrate cannot afford it the search retries with
// only the links banned. The ban sets ride per-request copies of the
// shared builtin options (core.Options is a value); a banned search keeps
// its view and trees to itself, so the shared cache never sees them.
func (s *Server) embedBackup(ctx context.Context, alg string, p *core.Problem, primary *core.Solution) (*core.Result, error) {
	opts, ok := s.protectOpts[alg]
	if !ok {
		// prepare() rejects protection for ban-incapable algorithms; this
		// is a bug guard for controller-issued jobs.
		return nil, fmt.Errorf("%w: algorithm %q cannot compute banned-set backups", ErrBadRequest, alg)
	}
	edges, nodes := backupBans(s.net, primary, p.Src, p.Dst)
	opts.BannedEdges = edges
	opts.BannedNodes = nodes
	res, err := core.EmbedContext(ctx, p, opts)
	if err == nil || !errors.Is(err, core.ErrNoEmbedding) {
		return res, err
	}
	// Node-disjointness is best-effort: fall back to link-disjoint only.
	opts.BannedNodes = nil
	return core.EmbedContext(ctx, p, opts)
}

// admitBackup runs the protected-admission second embed on the worker's
// private snapshot (p.Ledger): the primary is reserved there first, so
// the backup competes only for what remains. On failure the job is
// finished terminally — a protected admission commits both placements or
// neither — and false is returned.
func (s *Server) admitBackup(j *job, p *core.Problem) bool {
	if err := core.Reserve(p, j.cost.Usage); err != nil {
		// The primary came out of this very snapshot; failing to reserve
		// it there is a pipeline bug, not a capacity race.
		s.finish(j, jobResult{err: fmt.Errorf("%w: backup pre-reserve: %v", ErrInternal, err)})
		return false
	}
	s.journal.Append(journal.Event{
		Type: journal.TypeEmbedStart, Flow: j.id, Alg: j.alg, Attempt: j.retries,
		Detail: "backup",
	})
	begin := time.Now()
	res, err := s.embedBackup(j.ctx, j.alg, p, j.res.Solution)
	dur := time.Since(begin)
	telemetry.RecordServerStage(telemetry.StageEmbed, dur)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w: backup embed cancelled: %v", ErrTimeout, err)
		} else {
			err = fmt.Errorf("no disjoint backup placement: %w", err)
			telemetry.RecordBackupAdmitFailure()
		}
		s.journal.Append(journal.Event{
			Type: journal.TypeEmbedDone, Flow: j.id, Alg: j.alg, Attempt: j.retries,
			Seconds: dur.Seconds(), Detail: "backup", Err: err.Error(),
		})
		s.finish(j, jobResult{err: err})
		return false
	}
	s.journal.Append(journal.Event{
		Type: journal.TypeEmbedDone, Flow: j.id, Alg: j.alg, Attempt: j.retries,
		Seconds: dur.Seconds(), Cost: res.Cost.Total(), Nodes: res.Stats.TreeNodes,
		Detail: "backup",
	})
	j.backup = res
	return true
}

// pairFitsLocked checks, under s.mu, that a protected admission's primary
// and backup fit the live ledger together: the primary is reserved on a
// throwaway overlay and the backup's usage checked over it. The primary
// alone has already passed, so a failure here is the backup's.
func (s *Server) pairFitsLocked(p *core.Problem, j *job) error {
	pov := s.ledger.Overlay()
	probe := *p
	probe.Ledger = pov
	err := core.Reserve(&probe, j.cost.Usage)
	if err == nil {
		if err = core.CheckCapacity(&probe, j.backup.Cost.Usage); err != nil {
			err = fmt.Errorf("backup: %w", err)
		}
	}
	pov.Discard()
	return err
}

// enqueueReprotect hands a protected-but-unprotected flow (its backup was
// promoted or lost) to the repair controller's queue for a background
// re-protect. info carries the original request in wire form.
func (s *Server) enqueueReprotect(id int64, f network.Fault, info FlowInfo) {
	s.enqueueRepairs([]*repairTask{{
		id: id, fault: f, info: info, strandedAt: time.Now(), reprotect: true,
	}})
}

// reprotectOne drives one re-protect task: embed and reserve a fresh
// disjoint backup for a flow that is live on its primary but lost its
// backup. The cadence mirrors repairOne — bounded judged attempts,
// admission-level rejections absorbed under their own cap, exponential
// backoff with deterministic jitter — but exhaustion is not an eviction:
// the flow keeps serving on its primary, just unprotected.
func (s *Server) reprotectOne(t *repairTask, rng *rand.Rand) {
	var lastErr error
	attempts := 0
	admits := 0
	for try := 0; ; try++ {
		if try > 0 {
			if !s.repairBackoff(try, rng) {
				return // stopping; a restart re-derives the task from the WAL
			}
		}
		s.mu.Lock()
		_, live := s.flows.Get(t.id)
		_, protected := s.backups[t.id]
		state := s.meta[t.id].State
		s.mu.Unlock()
		if !live || protected || state != FlowStateActive {
			// Released, already re-protected, or stranded by a newer fault
			// (the repair path re-arms protection on its own success).
			return
		}
		err := s.reprotectAttempt(t, try)
		if err == nil {
			return
		}
		lastErr = err
		if errors.Is(err, ErrDraining) || errors.Is(err, ErrNotFound) {
			return
		}
		if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrTimeout) {
			if admits++; admits <= s.cfg.RepairAdmitRetries {
				continue
			}
			break
		}
		if attempts++; attempts >= s.cfg.RepairRetries {
			break
		}
	}
	// Exhausted: the flow stays active on its primary without a backup.
	ev := journal.Event{
		Type: journal.TypeBackupLost, Flow: t.id, Attempt: attempts,
		Detail: "re-protect exhausted",
	}
	if lastErr != nil {
		ev.Err = lastErr.Error()
	}
	s.journal.Append(ev)
}

// reprotectAttempt runs one backup-only embed through the admission
// pipeline. The job carries the repair task with its reprotect marker,
// so the worker runs the ban-seeded backup search instead of a full
// embed and the commit loop reserves the result as the flow's backup.
func (s *Server) reprotectAttempt(t *repairTask, try int) error {
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
	s.journal.Append(journal.Event{
		Type: journal.TypeRepairAttempt, Flow: t.id, Alg: alg, Attempt: try + 1,
		Detail: "re-protect",
	})
	return s.admitRepairJob(j, "re-protect backup")
}

// reprotectEmbed is the worker half of a re-protect: snapshot the ledger
// (which carries the live primary's reservations), derive the ban sets
// from the current primary and search for a disjoint backup.
func (s *Server) reprotectEmbed(j *job) {
	t := j.repair
	s.mu.Lock()
	fl, ok := s.flows.Get(t.id)
	if !ok || s.meta[t.id].State != FlowStateActive {
		s.mu.Unlock()
		s.finish(j, jobResult{err: fmt.Errorf("%w: flow %d no longer active", ErrNotFound, t.id)})
		return
	}
	primary := fl.Solution
	snap := s.ledger.Snapshot()
	s.mu.Unlock()
	p := &core.Problem{
		Net: s.net, Ledger: snap, SFC: j.dag,
		Src: graph.NodeID(j.req.Src), Dst: graph.NodeID(j.req.Dst),
		Rate: j.req.Rate, Size: j.req.Size,
	}
	s.journal.Append(journal.Event{
		Type: journal.TypeEmbedStart, Flow: j.id, Alg: j.alg, Attempt: j.retries,
		Detail: "re-protect",
	})
	begin := time.Now()
	res, err := s.embedBackup(j.ctx, j.alg, p, primary)
	j.embedDone = time.Now()
	dur := j.embedDone.Sub(begin)
	telemetry.RecordServerStage(telemetry.StageEmbed, dur)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			err = fmt.Errorf("%w: embed cancelled: %v", ErrTimeout, err)
		} else {
			err = fmt.Errorf("no disjoint backup placement: %w", err)
			telemetry.RecordBackupAdmitFailure()
		}
		s.journal.Append(journal.Event{
			Time: j.embedDone, Type: journal.TypeEmbedDone, Flow: j.id, Alg: j.alg,
			Attempt: j.retries, Seconds: dur.Seconds(), Detail: "re-protect",
			Err: err.Error(),
		})
		s.finish(j, jobResult{err: err})
		return
	}
	s.journal.Append(journal.Event{
		Time: j.embedDone, Type: journal.TypeEmbedDone, Flow: j.id, Alg: j.alg,
		Attempt: j.retries, Seconds: dur.Seconds(), Cost: res.Cost.Total(),
		Nodes: res.Stats.TreeNodes, Detail: "re-protect",
	})
	j.res, j.cost = res, res.Cost
	j.reprotectAgainst = primary
	s.commit <- j
}

// commitReprotect is the commit-loop half of a re-protect: validate the
// backup against the live ledger and reserve it under the flow's ID. The
// ban sets were derived from a specific primary, so the backup is only
// committed if that exact primary is still the flow's live placement —
// a repair or failover in between conflicts the attempt back to the
// controller for a fresh embed.
func (s *Server) commitReprotect(j *job) {
	t := j.repair
	s.journal.Append(journal.Event{
		Type: journal.TypeCommitAttempt, Flow: j.id, Attempt: j.retries,
		Detail: "re-protect",
	})
	s.mu.Lock()
	fl, ok := s.flows.Get(t.id)
	if !ok || s.meta[t.id].State != FlowStateActive {
		s.mu.Unlock()
		s.finish(j, jobResult{err: fmt.Errorf("%w: flow %d no longer active", ErrNotFound, t.id)})
		return
	}
	if _, protected := s.backups[t.id]; protected {
		// Someone re-protected it already; quiet success.
		info := s.meta[t.id]
		s.mu.Unlock()
		s.finish(j, jobResult{info: info})
		return
	}
	var verr error
	if fl.Solution != j.reprotectAgainst {
		verr = fmt.Errorf("primary moved during re-protect")
	} else {
		p := &core.Problem{
			Net: s.net, Ledger: s.ledger, SFC: j.dag,
			Src: graph.NodeID(j.req.Src), Dst: graph.NodeID(j.req.Dst),
			Rate: j.req.Rate, Size: j.req.Size,
		}
		// The backup came validated out of core's search; what remains is
		// the live-ledger half (see commitLoop).
		verr = core.CheckCapacity(p, j.cost.Usage)
		if verr == nil {
			if !j.finished.CompareAndSwap(false, true) {
				s.mu.Unlock()
				s.inflight.Done()
				return
			}
			bcb := j.cost
			if err := core.Reserve(p, bcb.Usage); err != nil {
				// The check just passed under the same lock; bug guard.
				s.mu.Unlock()
				telemetry.RecordOnlineCommitFailure()
				j.done <- jobResult{err: fmt.Errorf("%w: %v", ErrCommitConflict, err)}
				s.inflight.Done()
				return
			}
			s.backups[t.id] = j.res.Solution
			info := s.meta[t.id]
			info.BackupActive = true
			info.BackupCost = Cost{Total: bcb.Total(), VNF: bcb.VNFCost, Link: bcb.LinkCost}
			s.meta[t.id] = info
			var ticket uint64
			if payload, merr := json.Marshal(walBackup{Sol: j.res.Solution, Cost: info.BackupCost}); merr == nil {
				ticket = s.walEnqueueLocked(wal.TypeBackup, t.id, payload)
			}
			nb := len(s.backups)
			s.mu.Unlock()
			telemetry.SetBackupsActive(nb)
			telemetry.RecordReprotect()
			s.journal.Append(journal.Event{
				Type: journal.TypeReprotected, Flow: t.id, Alg: j.alg,
				Cost: info.BackupCost.Total, Seconds: time.Since(t.strandedAt).Seconds(),
			})
			j.done <- jobResult{info: info, ticket: ticket}
			s.inflight.Done()
			return
		}
	}
	s.mu.Unlock()
	telemetry.RecordOnlineCommitFailure()
	s.journal.Append(journal.Event{
		Type: journal.TypeCommitConflict, Flow: j.id, Attempt: j.retries,
		Detail: "re-protect", Err: verr.Error(),
	})
	s.finish(j, jobResult{err: fmt.Errorf("%w: %v", ErrCommitConflict, verr)})
}
