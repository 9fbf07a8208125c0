package flowstate

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dagsfc/internal/core"
	"dagsfc/internal/jsonbuf"
	"dagsfc/internal/network"
	"dagsfc/internal/wal"
)

// The WAL payloads, one per record type that carries one. Fault-carrying
// records (fault_apply, fault_restore, strand, failover, backup_loss) hold
// a FaultRequest; admit, release and expire hold nothing. The field names
// are the on-disk format.
type (
	// commitPayload is everything needed to re-register a flow: its wire
	// description as committed plus the exact placements whose
	// reservations the replay takes again.
	commitPayload struct {
		Info   FlowInfo       `json:"info"`
		Sol    *core.Solution `json:"sol"`
		Backup *core.Solution `json:"backup,omitempty"`
	}
	backupPayload struct {
		Sol  *core.Solution `json:"sol"`
		Cost Cost           `json:"cost"`
	}
	evictPayload struct {
		LastError string `json:"last_error,omitempty"`
		Cause     string `json:"cause,omitempty"`
	}
)

// Encoder frames applied transitions into WAL records, encoding every
// payload into one reused buffer from a slot of its own, so that no payload
// is boxed into an interface. The zero value is ready to use.
type Encoder struct {
	buf    jsonbuf.Buffer
	commit commitPayload
	backup backupPayload
	evict  evictPayload
	fault  FaultRequest
}

// Encode returns the record that makes t durable; ok is false for the
// transitions that change nothing durable, and err non-nil when t's
// payload cannot be encoded (a value JSON cannot hold). ch is what Apply
// returned for t — a commit record carries the flow as it stood afterwards.
// The record's Data aliases the encoder's buffer until the next Encode
// (wal.Log.Enqueue copies it into the frame).
func (e *Encoder) Encode(t Transition, ch Change) (rec wal.Record, ok bool, err error) {
	var payload any
	switch t.Kind {
	case Admit, Release, Expire:
		return wal.Record{Type: wal.Type(t.Kind), Flow: t.Flow}, true, nil
	case Commit:
		e.commit = commitPayload{Info: ch.Info, Sol: t.Primary, Backup: t.Backup}
		payload = &e.commit
	case Backup:
		e.backup = backupPayload{Sol: t.Backup, Cost: ch.Info.BackupCost}
		payload = &e.backup
	case Evict:
		e.evict = evictPayload{LastError: t.LastError, Cause: t.Cause}
		payload = &e.evict
	case FaultApply, FaultRestore, Strand, Failover, BackupLoss:
		e.fault = FaultToWire(t.Fault)
		payload = &e.fault
	default:
		return wal.Record{}, false, nil
	}
	if err := e.buf.Encode(payload); err != nil {
		return wal.Record{}, false, fmt.Errorf("flowstate: %s record of flow %d: %w", t.Kind, t.Flow, err)
	}
	// Encode ends the value with a newline json.Marshal would not write.
	return wal.Record{Type: wal.Type(t.Kind), Flow: t.Flow, Data: bytes.TrimSuffix(e.buf.Bytes(), []byte("\n"))}, true, nil
}

// Decode rebuilds the transition a record was framed from, minus what the
// log never held: the placements' usage (Apply evaluates it again) and the
// stale-guards (only applied transitions were logged).
func Decode(net *network.Network, r wal.Record) (Transition, error) {
	t := Transition{Kind: Kind(r.Type), Flow: r.Flow}
	var err error
	switch t.Kind {
	case Admit, Release, Expire:
	case Commit:
		var cp commitPayload
		if err = json.Unmarshal(r.Data, &cp); err == nil {
			t.Info, t.Primary, t.Backup = cp.Info, cp.Sol, cp.Backup
			t.Problem, err = ProblemFor(net, cp.Info)
		}
	case Backup:
		var bp backupPayload
		err = json.Unmarshal(r.Data, &bp)
		t.Backup, t.Info.BackupCost = bp.Sol, bp.Cost
	case Evict:
		var ep evictPayload
		if len(r.Data) > 0 {
			err = json.Unmarshal(r.Data, &ep)
		}
		t.LastError, t.Cause = ep.LastError, ep.Cause
	case FaultApply, FaultRestore, Strand, Failover, BackupLoss:
		var fw FaultRequest
		if err = json.Unmarshal(r.Data, &fw); err == nil {
			t.Fault, err = FaultFromWire(fw)
		}
	default:
		err = fmt.Errorf("unknown record type %d", uint8(r.Type))
	}
	return t, err
}

// Snapshot is the full state at one instant, in the WAL snapshot's on-disk
// form. The ledger is raw accumulated usage, never re-derived values, so
// importing it reproduces every residual bit-for-bit; active faults are
// re-applied on import (quarantine amounts are pure functions of the
// immutable network). JournalSeq is the server's to fill and read.
type Snapshot struct {
	NextID         int64               `json:"next_id"`
	Flows          []SnapshotFlow      `json:"flows,omitempty"`
	Ledger         network.LedgerState `json:"ledger"`
	Faults         []FaultRequest      `json:"faults,omitempty"`
	FaultsApplied  int                 `json:"faults_applied,omitempty"`
	FaultsRestored int                 `json:"faults_restored,omitempty"`
	JournalSeq     uint64              `json:"journal_seq,omitempty"`
}

// SnapshotFlow is one flow in a snapshot. Sol is set for active flows and
// Backup for those holding one (their reservations are in the ledger
// state); Fault is set for repairing flows so recovery can re-enqueue the
// repair; evicted tombstones carry none of them.
type SnapshotFlow struct {
	Info   FlowInfo       `json:"info"`
	Sol    *core.Solution `json:"sol,omitempty"`
	Backup *core.Solution `json:"backup,omitempty"`
	Fault  *FaultRequest  `json:"fault,omitempty"`
}

// Export captures the state as a snapshot.
func (st *State) Export() Snapshot {
	snap := Snapshot{
		NextID:         st.nextID,
		Ledger:         st.ledger.ExportState(),
		FaultsApplied:  st.faultsApplied,
		FaultsRestored: st.faultsRestored,
	}
	for _, f := range st.faults {
		snap.Faults = append(snap.Faults, FaultToWire(f))
	}
	for _, info := range st.Flows() {
		rec := st.flows[info.ID]
		sf := SnapshotFlow{Info: info, Sol: rec.primary, Backup: rec.backup}
		if info.State == StateRepairing {
			fw := FaultToWire(rec.fault)
			sf.Fault = &fw
		}
		snap.Flows = append(snap.Flows, sf)
	}
	return snap
}

// Import rebuilds the state a snapshot was exported from.
func Import(net *network.Network, snap Snapshot) (*State, error) {
	root, err := network.NewLedgerFromState(net, snap.Ledger)
	if err != nil {
		return nil, fmt.Errorf("snapshot ledger: %v", err)
	}
	st := New(net)
	for _, fw := range snap.Faults {
		f, err := FaultFromWire(fw)
		if err == nil {
			err = root.ApplyFault(f)
		}
		if err != nil {
			return nil, fmt.Errorf("snapshot fault %+v: %v", fw, err)
		}
		st.faults = append(st.faults, f)
	}
	st.ledger = root
	st.nextID, st.faultsApplied, st.faultsRestored = snap.NextID, snap.FaultsApplied, snap.FaultsRestored
	for _, sf := range snap.Flows {
		rec := &flow{info: sf.Info}
		if sf.Sol != nil {
			// The reservations are already inside the raw ledger sums; only
			// the placements need restoring.
			if rec.problem, err = ProblemFor(net, sf.Info); err != nil {
				return nil, fmt.Errorf("snapshot %v", err)
			}
			rec.primary, rec.backup = sf.Sol, sf.Backup
			st.active++
			if sf.Backup != nil {
				st.backups++
			}
		}
		if sf.Fault != nil {
			rec.fault, _ = FaultFromWire(*sf.Fault)
		}
		st.flows[sf.Info.ID] = rec
	}
	return st, nil
}
