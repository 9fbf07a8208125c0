// Package flowstate is the serving layer's flow state machine: everything
// the server's state mutex guards and the write-ahead log makes durable —
// the live capacity ledger, one record per known flow, the active faults
// and the flow-ID high-water mark — behind exactly one mutator, Apply. A
// Transition says what happened (a commit, a release, a fault, a failover,
// …); Apply checks its preconditions against the state of the moment and
// moves ledger and flow table together, so the capacity constraints (eqs.
// 2–3) cannot be broken by a path that updates one and forgets the other.
//
// The package holds no lock, reads no clock and does no I/O: the server
// calls Apply under its mutex and frames the same Transition into a WAL
// record (Encoder); recovery decodes each record back (Decode) and calls
// the same Apply. Live and replayed state therefore cannot diverge — they
// are the output of one function over one sequence of values.
package flowstate

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/wal"
)

// Cost is the priced breakdown of a committed flow.
type Cost struct {
	Total float64 `json:"total"`
	VNF   float64 `json:"vnf"`
	Link  float64 `json:"link"`
}

// CostOf converts an evaluated objective into its wire form.
func CostOf(cb core.CostBreakdown) Cost {
	return Cost{Total: cb.Total(), VNF: cb.VNFCost, Link: cb.LinkCost}
}

// Flow lifecycle states. A flow is "active" from commit until release; a
// substrate fault that strands it moves it to "repairing" while the
// repair loop re-embeds it; exhausted repairs leave a terminal "evicted"
// tombstone that stays visible in GET /v1/flows until acknowledged with
// DELETE.
const (
	StateActive    = "active"
	StateRepairing = "repairing"
	StateEvicted   = "evicted"
)

// ProtectionBackup is the protection class of a flow admitted with a
// reserved disjoint backup embedding.
const ProtectionBackup = "backup"

// CauseProtectionLost marks an evicted flow that had a backup reserved
// and still lost both placements (FlowInfo.Cause).
const CauseProtectionLost = "protection_lost"

// FlowInfo describes one committed flow: the response of POST /v1/flows
// and the element of GET /v1/flows.
type FlowInfo struct {
	ID      int64     `json:"id"`
	SFC     string    `json:"sfc"`
	Src     int       `json:"src"`
	Dst     int       `json:"dst"`
	Rate    float64   `json:"rate"`
	Size    float64   `json:"size"`
	Alg     string    `json:"alg"`
	Cost    Cost      `json:"cost"`
	Created time.Time `json:"created"`
	// ExpiresAt is set when the flow has a TTL; the server releases it
	// automatically at that time.
	ExpiresAt *time.Time `json:"expires_at,omitempty"`
	// State is the flow's lifecycle state (StateActive, -Repairing or
	// -Evicted).
	State string `json:"state,omitempty"`
	// Repairs counts successful re-embeds after faults stranded the flow.
	Repairs int `json:"repairs,omitempty"`
	// LastError is the final re-embed error of an evicted flow.
	LastError string `json:"last_error,omitempty"`
	// Protection is the flow's protection class (ProtectionBackup for
	// flows admitted with a reserved disjoint backup; empty otherwise).
	Protection string `json:"protection,omitempty"`
	// BackupActive reports whether a backup embedding is currently
	// reserved; BackupCost is its priced breakdown (zero when no backup is
	// live). A failover promotes the backup, so afterwards BackupActive is
	// false until the restore controller reserves a fresh one.
	BackupActive bool `json:"backup_active,omitempty"`
	BackupCost   Cost `json:"backup_cost"`
	// Failovers counts backup promotions after faults killed the primary.
	Failovers int `json:"failovers,omitempty"`
	// Cause classifies a terminal eviction beyond LastError:
	// "protection_lost" marks a flow that held a backup and still could
	// not be saved (both placements died and repair was exhausted).
	Cause string `json:"cause,omitempty"`
}

// FaultRequest is the body of POST /v1/faults and /v1/faults/restore, and
// the WAL payload of every fault-carrying record: one substrate fault in
// wire form. Kind is "link-down", "node-down", "link-degrade" or
// "edge-down"; Fraction applies to degradations only.
type FaultRequest struct {
	Kind     string  `json:"kind"`
	Link     int     `json:"link,omitempty"`
	Node     int     `json:"node,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
}

// FaultToWire renders a fault in wire form.
func FaultToWire(f network.Fault) FaultRequest {
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

// FaultFromWire parses a wire-form fault.
func FaultFromWire(w FaultRequest) (network.Fault, error) {
	kind, err := faults.ParseKind(w.Kind)
	if err != nil {
		return network.Fault{}, err
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

// ProblemFor rebuilds a flow's core.Problem from its wire description. The
// problem carries no ledger: the state binds the ledger of the moment at
// every use.
func ProblemFor(net *network.Network, info FlowInfo) (*core.Problem, error) {
	dag, err := sfc.Parse(info.SFC)
	if err != nil {
		return nil, fmt.Errorf("flow %d: bad sfc %q: %v", info.ID, info.SFC, err)
	}
	return &core.Problem{
		Net: net, SFC: dag,
		Src: graph.NodeID(info.Src), Dst: graph.NodeID(info.Dst),
		Rate: info.Rate, Size: info.Size,
	}, nil
}

// Kind names a transition. The first eleven are the WAL's record types,
// value for value; the last changes nothing durable and is never logged.
type Kind uint8

const (
	// Admit: a flow ID left the allocator. Raises the ID high-water mark.
	Admit = Kind(wal.TypeAdmit)
	// Commit: a placement's reservations enter the ledger — a new flow, or
	// (Repair, or a record already repairing) a stranded flow re-registered
	// under its original identity. With Backup set, both placements are
	// reserved or neither.
	Commit = Kind(wal.TypeCommit)
	// Release and Expire: the flow leaves, whatever it holds returns to the
	// ledger. A repairing flow or an evicted tombstone holds nothing and is
	// simply forgotten.
	Release = Kind(wal.TypeRelease)
	Expire  = Kind(wal.TypeExpire)
	// Evict: a repairing flow's repairs are exhausted; it becomes a
	// terminal tombstone carrying LastError and Cause.
	Evict = Kind(wal.TypeEvict)
	// FaultApply and FaultRestore quarantine and return Fault's capacity.
	FaultApply   = Kind(wal.TypeFaultApply)
	FaultRestore = Kind(wal.TypeFaultRestore)
	// Strand: Fault killed the flow's primary and nothing can take over;
	// everything it holds is released and it waits, repairing.
	Strand = Kind(wal.TypeStrand)
	// Backup: an active flow without a backup gains one (re-protect).
	Backup = Kind(wal.TypeBackup)
	// Failover: Fault killed the primary; the reserved backup is promoted
	// in place.
	Failover = Kind(wal.TypeFailover)
	// BackupLoss: Fault killed the backup; the primary serves on alone.
	BackupLoss = Kind(wal.TypeBackupLoss)
	// Revalidate: Fault touched the flow and it survived in place. Nothing
	// changes; the verdict stands only if the placements are still the
	// ones judged.
	Revalidate = Kind(128)
)

// String is the kind's name: its WAL record type's, or "revalidate".
func (k Kind) String() string {
	if k == Revalidate {
		return "revalidate"
	}
	return wal.Type(k).String()
}

// Transition is one state change, as a value: built by whoever decided it,
// applied by Apply, framed into the WAL by Encoder and rebuilt from the
// log by Decode. Which fields matter depends on Kind.
type Transition struct {
	Kind Kind
	Flow int64
	// Info, for a Commit, is the flow as it stands once committed (a
	// re-commit takes only its Cost); for a Backup, it carries BackupCost.
	Info FlowInfo
	// Problem is a Commit's problem instance, without a ledger.
	Problem *core.Problem
	// Primary and Backup are a Commit's placements (Backup optional) and a
	// Backup's new backup. For Strand, Failover, BackupLoss and Revalidate
	// they are the placements the verdict was reached on, and for Backup
	// Primary is the placement the backup was searched against: if the
	// flow's own have moved since, the transition is stale. A decoded
	// record carries no such guard — the log holds only what applied.
	Primary, Backup *core.Solution
	// Usage and BackupUsage are the placements' resource usage as the
	// embed worker priced them. A decoded record has none; Apply evaluates.
	Usage, BackupUsage core.Usage
	// Repair marks a Commit issued to restore a stranded flow: if the flow
	// is no longer waiting for one (released mid-repair), it is stale.
	Repair bool
	// Fault is the fault applied, restored, or responsible.
	Fault network.Fault
	// LastError and Cause describe an Evict.
	LastError, Cause string
}

// Change is what a transition did: the flow as it now stands (as it last
// stood, for a release) and the state's new counts.
type Change struct {
	Info            FlowInfo
	Active, Backups int
	Faults          int
}

// ErrStale marks a transition whose precondition no longer holds — the
// flow was released, repaired, failed over or re-protected since the
// transition was decided. Nothing was changed.
var ErrStale = errors.New("flowstate: stale transition")

func stale(id int64, why string) error {
	return fmt.Errorf("%w: flow %d %s", ErrStale, id, why)
}

// flow is everything the state knows about one flow. problem and primary
// are set exactly while State is active; backup only beside a primary;
// fault only while repairing.
type flow struct {
	info            FlowInfo
	problem         *core.Problem
	primary, backup *core.Solution
	fault           network.Fault
}

// State is the flow state machine's state. It is not safe for concurrent
// use; the server serializes access under its state mutex.
type State struct {
	// ledger is the live capacity state; workers embed on copies of it.
	// probe is the spare a protected commit reserves its pair on before it
	// becomes the live ledger (reservePair); the two trade places.
	ledger, probe   *network.Ledger
	flows           map[int64]*flow
	active, backups int
	faults          []network.Fault
	faultsApplied   int
	faultsRestored  int
	nextID          int64
	// scratch is the one problem bound to the live ledger: standing
	// problems never carry a ledger pointer, so nothing a flow keeps can
	// read a ledger that has moved on.
	scratch core.Problem
}

// New returns the empty state over net.
func New(net *network.Network) *State {
	return &State{ledger: network.NewLedger(net), flows: make(map[int64]*flow)}
}

func (st *State) bound(p *core.Problem) *core.Problem {
	st.scratch = *p
	st.scratch.Ledger = st.ledger
	return &st.scratch
}

// reserve takes sol's reservations on the live ledger, all or none. u is
// sol's resource usage as the embed worker priced it; a replayed record
// carries none, and the placement is evaluated here instead.
func (st *State) reserve(p *core.Problem, sol *core.Solution, u core.Usage) error {
	if u.Instances == nil && u.Edges == nil {
		cb, err := core.Evaluate(p, sol)
		if err != nil {
			return err
		}
		u = cb.Usage
	}
	return core.Reserve(st.bound(p), u)
}

// check is the precondition half of Apply: is the flow still in the state
// the transition was decided on? Whether a placement fits the ledger is
// left to the reservation itself.
func (st *State) check(t Transition, rec *flow) error {
	switch t.Kind {
	case Commit:
		if t.Problem == nil || t.Primary == nil {
			return fmt.Errorf("flowstate: commit without a placement")
		}
		if (rec != nil || t.Repair) && (rec == nil || rec.info.State != StateRepairing) {
			return stale(t.Flow, "is not waiting for a repair")
		}
	case Release, Expire:
		if rec == nil {
			return stale(t.Flow, "unknown")
		}
	case Evict:
		if rec == nil || rec.info.State != StateRepairing {
			return stale(t.Flow, "is not repairing")
		}
	case Strand, Failover, BackupLoss, Revalidate:
		if rec == nil || rec.primary == nil || (t.Primary != nil && (rec.primary != t.Primary || rec.backup != t.Backup)) {
			return stale(t.Flow, "moved since the fault verdict")
		}
		if (t.Kind == Failover || t.Kind == BackupLoss) && rec.backup == nil {
			return stale(t.Flow, "holds no backup")
		}
	case Backup:
		if rec == nil || rec.primary == nil || rec.backup != nil {
			return stale(t.Flow, "is not an active flow without a backup")
		}
		if t.Backup == nil {
			return fmt.Errorf("flowstate: backup without a placement")
		}
		if t.Primary != nil && rec.primary != t.Primary {
			return fmt.Errorf("primary moved during re-protect")
		}
	}
	return nil
}

// Apply is the state's one mutator and its one check: it checks t's
// preconditions and whether its placements fit the live ledger of the
// moment and, if they do, moves the ledger and the flow table together. On
// any error — ErrStale, a capacity conflict, a malformed fault — nothing
// has changed, bit for bit. Recovery replays the log through this same
// function; the only thing a replayed transition lacks is its pre-priced
// usage.
func (st *State) Apply(t Transition) (Change, error) {
	rec := st.flows[t.Flow]
	if err := st.check(t, rec); err != nil {
		return Change{}, err
	}
	ch := Change{}
	switch t.Kind {
	case Admit:
		st.nextID = max(st.nextID, t.Flow)
	case Commit:
		var err error
		if t.Backup == nil {
			err = st.reserve(t.Problem, t.Primary, t.Usage)
		} else if err = st.reservePair(t); err == nil {
			st.backups++
		}
		if err != nil {
			return Change{}, err
		}
		info := t.Info
		if rec == nil {
			rec = &flow{}
			st.flows[t.Flow] = rec
		} else {
			// Re-register under the original identity: same ID, same TTL
			// deadline, fresh cost, one more repair on the odometer.
			info = rec.info
			info.State, info.LastError, info.Cost = StateActive, "", t.Info.Cost
			info.Repairs++
		}
		*rec = flow{info: info, problem: t.Problem, primary: t.Primary, backup: t.Backup}
		st.active++
		st.nextID = max(st.nextID, t.Flow)
	case Release, Expire:
		ch.Info = rec.info
		st.vacate(rec)
		delete(st.flows, t.Flow)
		rec = nil
	case Evict:
		rec.info.State, rec.info.LastError, rec.info.Cause = StateEvicted, t.LastError, t.Cause
		rec.fault = network.Fault{}
	case FaultApply:
		if err := st.ledger.ApplyFault(t.Fault); err != nil {
			return Change{}, err
		}
		st.faults = append(st.faults, t.Fault)
		st.faultsApplied++
	case FaultRestore:
		if err := st.ledger.RestoreFault(t.Fault); err != nil {
			return Change{}, err
		}
		if i := slices.Index(st.faults, t.Fault); i >= 0 {
			st.faults = slices.Delete(st.faults, i, i+1)
		}
		st.faultsRestored++
	case Strand:
		st.vacate(rec)
		rec.info.State, rec.fault = StateRepairing, t.Fault
	case Backup:
		if err := st.reserve(rec.problem, t.Backup, t.BackupUsage); err != nil {
			return Change{}, err
		}
		rec.backup = t.Backup
		rec.info.BackupActive, rec.info.BackupCost = true, t.Info.BackupCost
		st.backups++
	case Failover:
		_ = core.Release(st.bound(rec.problem), rec.primary)
		rec.primary, rec.backup = rec.backup, nil
		st.backups--
		rec.info.Cost, rec.info.BackupCost, rec.info.BackupActive = rec.info.BackupCost, Cost{}, false
		rec.info.Failovers++
	case BackupLoss:
		st.dropBackup(rec)
	}
	if rec != nil {
		ch.Info = rec.info
	}
	ch.Active, ch.Backups, ch.Faults = st.active, st.backups, len(st.faults)
	return ch, nil
}

// reservePair takes a protected Commit's two reservations, both or
// neither, on the probe — a fresh copy of the live ledger — and makes it
// the live ledger once both fit: a refused pair never reserves and releases
// again, which at non-dyadic rates would leave float residue.
func (st *State) reservePair(t Transition) error {
	live := st.ledger
	st.ledger = live.SnapshotInto(st.probe)
	err := st.reserve(t.Problem, t.Primary, t.Usage)
	if err == nil {
		if err = st.reserve(t.Problem, t.Backup, t.BackupUsage); err != nil {
			err = fmt.Errorf("backup: %w", err)
		}
	}
	if err != nil {
		st.ledger, live = live, st.ledger
	}
	st.probe = live
	return err
}

// vacate returns everything the flow holds to the ledger — primary first,
// then backup, the order every release has always used. Releasing cannot
// fail: the placement priced at commit time and the network is immutable.
func (st *State) vacate(rec *flow) {
	if rec.primary != nil {
		_ = core.Release(st.bound(rec.problem), rec.primary)
		rec.primary = nil
		st.active--
	}
	st.dropBackup(rec)
	rec.problem = nil
}

func (st *State) dropBackup(rec *flow) {
	if rec.backup == nil {
		return
	}
	_ = core.Release(st.bound(rec.problem), rec.backup)
	rec.backup = nil
	rec.info.BackupActive, rec.info.BackupCost = false, Cost{}
	st.backups--
}

// Flow returns one known flow's description.
func (st *State) Flow(id int64) (FlowInfo, bool) {
	rec, ok := st.flows[id]
	if !ok {
		return FlowInfo{}, false
	}
	return rec.info, true
}

// Flows lists every known flow — active, repairing or evicted — by ID.
func (st *State) Flows() []FlowInfo {
	out := make([]FlowInfo, 0, len(st.flows))
	for _, rec := range st.flows {
		out = append(out, rec.info)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Active reports the number of flows holding a primary placement, Backups
// how many of them also hold a backup, NextID the highest flow ID any
// applied transition carried.
func (st *State) Active() int   { return st.active }
func (st *State) Backups() int  { return st.backups }
func (st *State) NextID() int64 { return st.nextID }

// Placement is an active flow's standing embedding: its problem (without
// a ledger), its primary and, if it holds one, its backup.
type Placement struct {
	ID              int64
	Problem         *core.Problem
	Primary, Backup *core.Solution
}

// Placement returns flow id's standing embedding; ok is false unless the
// flow is active.
func (st *State) Placement(id int64) (Placement, bool) {
	rec := st.flows[id]
	if rec == nil || rec.primary == nil {
		return Placement{}, false
	}
	return Placement{ID: id, Problem: rec.problem, Primary: rec.primary, Backup: rec.backup}, true
}

// Placements lists every active flow's standing embedding, by ID.
func (st *State) Placements() []Placement {
	out := make([]Placement, 0, st.active)
	for id := range st.flows {
		if pl, ok := st.Placement(id); ok {
			out = append(out, pl)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// Verdict judges one standing placement after fault f, on snap — any
// what-if copy of the ledger taken once f's quarantine has landed — and
// returns the transition the flow is owed: Revalidate (it survived in
// place), BackupLoss (the backup died, the primary serves on), Failover
// (the primary died, the backup takes over) or Strand. Both placements are
// first released into a copy of snap — written over scratch, a ledger the
// caller owns and is done with, or into fresh storage when scratch is nil
// — so a flow is never condemned for capacity it itself holds; the primary
// is validated, then re-reserved before the backup is judged, so "both
// fine" means the pair still fits together. snap is left untouched, and
// nothing here reads the State: the server runs it with its mutex
// released, and since snap is a value no later fault or commit can change
// the verdict under it. The placement pointers ride along as the
// transition's stale guard.
func Verdict(snap *network.Ledger, pl Placement, f network.Fault, scratch *network.Ledger) Transition {
	t := Transition{Kind: Strand, Flow: pl.ID, Fault: f, Primary: pl.Primary, Backup: pl.Backup}
	probe := *pl.Problem
	probe.Ledger = snap.SnapshotInto(scratch)
	err := core.Release(&probe, pl.Primary)
	if err == nil && pl.Backup != nil {
		err = core.Release(&probe, pl.Backup)
	}
	if err != nil {
		return t
	}
	priOK, bakOK := core.Validate(&probe, pl.Primary) == nil, false
	if pl.Backup != nil {
		if priOK {
			_, err = core.Commit(&probe, pl.Primary)
			priOK = err == nil
		}
		bakOK = core.Validate(&probe, pl.Backup) == nil
	}
	switch {
	case priOK && (pl.Backup == nil || bakOK):
		t.Kind = Revalidate
	case priOK:
		t.Kind = BackupLoss
	case bakOK:
		t.Kind = Failover
	}
	return t
}

// Need is what a flow lacks relative to what it was admitted with.
type Need uint8

const (
	// NeedNothing: unknown, evicted, or whole.
	NeedNothing Need = iota
	// NeedPrimary: stranded by a fault, waiting for a re-embed.
	NeedPrimary
	// NeedBackup: active with protection "backup" but no backup reserved.
	NeedBackup
)

// Lacks reads what the restore controller owes flow id off its record,
// and the fault that stranded it when that is a primary.
func (st *State) Lacks(id int64) (Need, network.Fault) {
	rec := st.flows[id]
	switch {
	case rec == nil:
	case rec.info.State == StateRepairing:
		return NeedPrimary, rec.fault
	case rec.primary != nil && rec.backup == nil && rec.info.Protection == ProtectionBackup:
		return NeedBackup, network.Fault{}
	}
	return NeedNothing, network.Fault{}
}

// Faults returns the faults currently quarantining capacity, oldest first
// (the state's own slice: read it before the next Apply), and the lifetime
// apply/restore counters.
func (st *State) Faults() (active []network.Fault, applied, restored int) {
	return st.faults, st.faultsApplied, st.faultsRestored
}

// Snapshot returns an independent what-if copy of the live ledger;
// SnapshotInto writes it over dst, a copy the caller is done with
// (network.Ledger.SnapshotInto).
func (st *State) Snapshot() *network.Ledger { return st.ledger.Snapshot() }
func (st *State) SnapshotInto(dst *network.Ledger) *network.Ledger {
	return st.ledger.SnapshotInto(dst)
}

// EdgeResidual and InstanceResidual read the live residual network.
func (st *State) EdgeResidual(e graph.EdgeID) float64 { return st.ledger.EdgeResidual(e) }
func (st *State) InstanceResidual(v graph.NodeID, f network.VNFID) float64 {
	return st.ledger.InstanceResidual(v, f)
}
