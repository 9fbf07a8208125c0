package flowstate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/netgen"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/wal"
)

// sim drives two states through one random history: a is the live state —
// every transition is applied to it directly, usage and stale-guards and
// all — and b is what recovery would rebuild: it only ever sees
// Decode(Encode(t)) of the transitions that applied to a.
type sim struct {
	t     *testing.T
	net   *network.Network
	rng   *rand.Rand
	a, b  *State
	enc   Encoder
	ids   int64
	clock time.Time
	steps map[string]int
}

// apply is one step: t to a; if it applied and is durable, its record to
// b; then every invariant. settled is false between a fault landing and
// its last casualty being dealt with, when standing placements may
// legitimately not validate.
func (s *sim) apply(name string, t Transition, settled bool) (Change, error) {
	s.t.Helper()
	ch, err := s.a.Apply(t)
	if err == nil {
		s.steps[name]++
		rec, ok, eerr := s.enc.Encode(t, ch)
		if eerr != nil {
			s.t.Fatalf("%s: %v", name, eerr)
		}
		if ok {
			rec.Data = bytes.Clone(rec.Data)
			back, derr := Decode(s.net, rec)
			if derr != nil {
				s.t.Fatalf("%s: decode of its own record: %v", name, derr)
			}
			if _, berr := s.b.Apply(back); berr != nil {
				s.t.Fatalf("%s: applied live, but its record does not replay: %v", name, berr)
			}
		}
	} else {
		s.steps[name+" (refused)"]++
	}
	s.verify(name, settled)
	return ch, err
}

// stale applies a transition that must be refused as stale and change
// nothing (verify compares a with b, which never saw it).
func (s *sim) stale(name string, t Transition) {
	s.t.Helper()
	if _, err := s.apply(name, t, true); !errors.Is(err, ErrStale) {
		s.t.Fatalf("%s: err = %v, want ErrStale", name, err)
	}
}

func (s *sim) verify(step string, settled bool) {
	s.t.Helper()
	if err := sameState(s.net, s.a, s.b); err != nil {
		s.t.Fatalf("after %s: live and replayed state differ: %v", step, err)
	}
	// Ledger == seed − Σ live reservations: sum them from nothing.
	edges := make([]float64, s.net.G.NumEdges())
	insts := make(map[core.InstanceUseKey]float64)
	for _, pl := range s.a.Placements() {
		for _, sol := range []*core.Solution{pl.Primary, pl.Backup} {
			if sol == nil {
				continue
			}
			cb, err := core.Evaluate(pl.Problem, sol)
			if err != nil {
				s.t.Fatalf("after %s: flow %d: %v", step, pl.ID, err)
			}
			for _, iu := range cb.Usage.Instances {
				insts[iu.InstanceUseKey] += float64(iu.Count) * pl.Problem.Rate
			}
			for _, eu := range cb.Usage.Edges {
				edges[eu.Edge] += float64(eu.Count) * pl.Problem.Rate
			}
		}
	}
	for e, want := range edges {
		if got := s.a.ledger.EdgeUsed(graph.EdgeID(e)); math.Float64bits(got) != math.Float64bits(want) {
			s.t.Fatalf("after %s: edge %d carries %v, the standing placements reserve %v", step, e, got, want)
		}
	}
	s.net.Instances(func(in network.Instance) {
		want := insts[core.InstanceUseKey{Node: in.Node, VNF: in.VNF}]
		if got := s.a.ledger.InstanceUsed(in.Node, in.VNF); math.Float64bits(got) != math.Float64bits(want) {
			s.t.Fatalf("after %s: instance f(%d)@%d carries %v, the standing placements reserve %v", step, in.VNF, in.Node, got, want)
		}
	})
	if settled {
		snap := s.a.Snapshot()
		for _, pl := range s.a.Placements() {
			if v := Verdict(snap, pl, network.Fault{}, nil); v.Kind != Revalidate {
				s.t.Fatalf("after %s: flow %d's standing placement fails validation net of itself (verdict kind %d)", step, pl.ID, v.Kind)
			}
		}
	}
	// Export → JSON → import lands on the same state.
	raw, err := json.Marshal(s.a.Export())
	if err != nil {
		s.t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		s.t.Fatal(err)
	}
	back, err := Import(s.net, snap)
	if err != nil {
		s.t.Fatalf("after %s: import of own export: %v", step, err)
	}
	if err := sameState(s.net, s.a, back); err != nil {
		s.t.Fatalf("after %s: export/import changed the state: %v", step, err)
	}
}

func sameResiduals(net *network.Network, x, y *network.Ledger) error {
	for _, e := range net.G.Edges() {
		if xr, yr := x.EdgeResidual(e.ID), y.EdgeResidual(e.ID); math.Float64bits(xr) != math.Float64bits(yr) {
			return fmt.Errorf("edge %d residual %v vs %v", e.ID, xr, yr)
		}
	}
	var err error
	net.Instances(func(in network.Instance) {
		if xr, yr := x.InstanceResidual(in.Node, in.VNF), y.InstanceResidual(in.Node, in.VNF); math.Float64bits(xr) != math.Float64bits(yr) {
			err = fmt.Errorf("instance f(%d)@%d residual %v vs %v", in.VNF, in.Node, xr, yr)
		}
	})
	return err
}

func sameJSON(x, y any) bool {
	xb, _ := json.Marshal(x)
	yb, _ := json.Marshal(y)
	return bytes.Equal(xb, yb)
}

// sameState compares two states field for field, residuals bit for bit.
func sameState(net *network.Network, x, y *State) error {
	if x.nextID != y.nextID || x.active != y.active || x.backups != y.backups {
		return fmt.Errorf("counters: next ID %d/%d, active %d/%d, backups %d/%d", x.nextID, y.nextID, x.active, y.active, x.backups, y.backups)
	}
	if !slices.Equal(x.faults, y.faults) || x.faultsApplied != y.faultsApplied || x.faultsRestored != y.faultsRestored {
		return fmt.Errorf("faults: %v (%d/%d) vs %v (%d/%d)", x.faults, x.faultsApplied, x.faultsRestored, y.faults, y.faultsApplied, y.faultsRestored)
	}
	if len(x.flows) != len(y.flows) {
		return fmt.Errorf("%d flows vs %d", len(x.flows), len(y.flows))
	}
	for id, xf := range x.flows {
		yf := y.flows[id]
		if yf == nil {
			return fmt.Errorf("flow %d missing", id)
		}
		// FlowInfo through JSON: instants, not time.Time internals.
		if !sameJSON(xf.info, yf.info) {
			return fmt.Errorf("flow %d info:\n%+v\n%+v", id, xf.info, yf.info)
		}
		if (xf.primary == nil) != (yf.primary == nil) || (xf.backup == nil) != (yf.backup == nil) ||
			!sameJSON(xf.primary, yf.primary) || !sameJSON(xf.backup, yf.backup) {
			return fmt.Errorf("flow %d placements differ", id)
		}
		if xf.fault != yf.fault {
			return fmt.Errorf("flow %d stranding fault %v vs %v", id, xf.fault, yf.fault)
		}
		if (xf.problem == nil) != (yf.problem == nil) {
			return fmt.Errorf("flow %d problem presence differs", id)
		}
		if xp, yp := xf.problem, yf.problem; xp != nil && (xp.Src != yp.Src || xp.Dst != yp.Dst || xp.Rate != yp.Rate ||
			xp.Size != yp.Size || sfc.Format(xp.SFC) != sfc.Format(yp.SFC) || xp.Ledger != nil || yp.Ledger != nil) {
			return fmt.Errorf("flow %d problem %+v vs %+v", id, xp, yp)
		}
	}
	return sameResiduals(net, x.ledger, y.ledger)
}

// embed searches p's ledger for a placement: the flow's primary, or with
// against set a backup link-disjoint from it.
func (s *sim) embed(p *core.Problem, against *core.Solution) (*core.Result, error) {
	if against == nil {
		return core.EmbedMBBE(p)
	}
	opts := core.MBBEOptions()
	opts.BannedEdges = make(map[graph.EdgeID]bool)
	against.VisitEdges(func(e graph.EdgeID) { opts.BannedEdges[e] = true })
	return core.EmbedContext(context.Background(), p, opts)
}

func (s *sim) pick(state string, want func(FlowInfo) bool) (FlowInfo, bool) {
	var pool []FlowInfo
	for _, info := range s.a.Flows() {
		if info.State == state && (want == nil || want(info)) {
			pool = append(pool, info)
		}
	}
	if len(pool) == 0 {
		return FlowInfo{}, false
	}
	return pool[s.rng.Intn(len(pool))], true
}

// commit builds (and applies) a Commit for a new flow, or with repair set a
// re-commit for that repairing flow.
func (s *sim) commit(repair *FlowInfo, protected bool) {
	info := FlowInfo{
		SFC: sfc.Format(sfcgen.MustGenerate(sfcgen.Config{Size: 1 + s.rng.Intn(3), LayerWidth: 2, VNFKinds: 4}, s.rng)),
		Src: s.rng.Intn(s.net.G.NumNodes()), Dst: s.rng.Intn(s.net.G.NumNodes()),
		// Dyadic rates: every sum the ledger forms is exact, so "seed minus
		// live reservations" can be demanded to the bit.
		Rate: 0.25 * float64(1+s.rng.Intn(6)), Size: 1, Alg: "mbbe",
		State: StateActive,
	}
	name := "commit"
	if repair != nil {
		info, name = *repair, "repair re-commit"
	} else {
		s.ids++
		info.ID = s.ids
		s.clock = s.clock.Add(time.Second)
		info.Created = s.clock
		if s.rng.Intn(2) == 0 {
			at := info.Created.Add(time.Minute)
			info.ExpiresAt = &at
		}
		if _, err := s.apply("admit", Transition{Kind: Admit, Flow: info.ID}, true); err != nil {
			s.t.Fatal(err)
		}
	}
	p, err := ProblemFor(s.net, info)
	if err != nil {
		s.t.Fatal(err)
	}
	search := *p
	search.Ledger = s.a.Snapshot()
	res, err := s.embed(&search, nil)
	if err != nil {
		return
	}
	t := Transition{
		Kind: Commit, Flow: info.ID, Repair: repair != nil, Info: info, Problem: p,
		Primary: res.Solution, Usage: res.Cost.Usage,
	}
	t.Info.Cost = CostOf(res.Cost)
	if protected && repair == nil {
		name = "protected commit"
		if err := core.Reserve(&search, res.Cost.Usage); err != nil {
			s.t.Fatal(err)
		}
		bres, err := s.embed(&search, res.Solution)
		if err != nil {
			return
		}
		t.Backup, t.BackupUsage = bres.Solution, bres.Cost.Usage
		t.Info.Protection, t.Info.BackupActive, t.Info.BackupCost = ProtectionBackup, true, CostOf(bres.Cost)
	}
	if _, err := s.apply(name, t, true); err != nil {
		s.t.Fatalf("%s: fresh embed on the live ledger refused: %v", name, err)
	}
	if s.rng.Intn(3) == 0 {
		// The same placement again, as a conflict retry that lost the race
		// would send it: a live flow cannot be committed over.
		s.stale(name+" twice", t)
	}
}

func (s *sim) fault() {
	f := network.Fault{Kind: network.FaultEdgeDown, Link: graph.EdgeID(s.rng.Intn(s.net.G.NumEdges()))}
	switch s.rng.Intn(4) {
	case 0:
		f = network.Fault{Kind: network.FaultNodeDown, Node: graph.NodeID(s.rng.Intn(s.net.G.NumNodes()))}
	case 1:
		f.Kind, f.Fraction = network.FaultLinkDegrade, 0.25*float64(1+s.rng.Intn(3))
	case 2:
		f.Kind = network.FaultLinkDown
	}
	if _, err := s.apply("fault", Transition{Kind: FaultApply, Fault: f}, false); err != nil {
		s.verify("refused fault", true)
		return
	}
	snap := s.a.Snapshot()
	for _, pl := range s.a.Placements() {
		if !faults.Hits(s.net, pl.Primary, f) && (pl.Backup == nil || !faults.Hits(s.net, pl.Backup, f)) {
			continue
		}
		t := Verdict(snap, pl, f, nil)
		if t.Flow != pl.ID || t.Fault != f || t.Primary != pl.Primary || t.Backup != pl.Backup {
			s.t.Fatalf("verdict on flow %d does not carry its flow, fault and guards: %+v", pl.ID, t)
		}
		if s.rng.Intn(3) == 0 {
			// A verdict reached on a placement the flow no longer stands on.
			moved := t
			moved.Primary = &core.Solution{}
			if _, err := s.apply("moved verdict", moved, false); !errors.Is(err, ErrStale) {
				s.t.Fatalf("verdict with a foreign guard: %v, want ErrStale", err)
			}
		}
		name := t.Kind.String()
		if _, err := s.apply(name, t, false); err != nil {
			s.t.Fatalf("%s flow %d: %v", name, pl.ID, err)
		}
	}
	s.verify("fault settled", true)
}

func (s *sim) step() {
	switch op := s.rng.Intn(20); {
	case op < 5:
		s.commit(nil, false)
	case op < 8:
		s.commit(nil, true)
	case op < 10:
		kind, name := Release, "release"
		if s.rng.Intn(2) == 0 {
			kind, name = Expire, "expire"
		}
		if info, ok := s.pick(StateActive, nil); ok {
			if _, err := s.apply(name, Transition{Kind: kind, Flow: info.ID}, true); err != nil {
				s.t.Fatal(err)
			}
			s.stale(name+" twice", Transition{Kind: kind, Flow: info.ID})
		}
	case op < 13:
		s.fault()
	case op < 14:
		if fs := s.a.faults; len(fs) > 0 {
			f := fs[s.rng.Intn(len(fs))]
			if _, err := s.apply("restore", Transition{Kind: FaultRestore, Fault: f}, true); err != nil {
				s.t.Fatal(err)
			}
		} else if _, err := s.apply("restore", Transition{Kind: FaultRestore, Fault: network.Fault{Kind: network.FaultEdgeDown}}, true); err == nil {
			s.t.Fatal("restore of a fault never applied went through")
		}
	case op < 16:
		if info, ok := s.pick(StateRepairing, nil); ok {
			s.commit(&info, false)
		}
	case op < 17:
		info, ok := s.pick(StateActive, func(i FlowInfo) bool { return i.Protection == ProtectionBackup && !i.BackupActive })
		if !ok {
			break
		}
		pl, _ := s.a.Placement(info.ID)
		search := *pl.Problem
		search.Ledger = s.a.Snapshot()
		res, err := s.embed(&search, pl.Primary)
		if err != nil {
			break
		}
		t := Transition{Kind: Backup, Flow: info.ID, Primary: pl.Primary, Backup: res.Solution, BackupUsage: res.Cost.Usage, Info: FlowInfo{BackupCost: CostOf(res.Cost)}}
		moved := t
		moved.Primary = &core.Solution{}
		if _, err := s.apply("re-protect against a moved primary", moved, true); err == nil || errors.Is(err, ErrStale) {
			s.t.Fatalf("re-protect against a moved primary: %v, want a conflict", err)
		}
		if _, err := s.apply("re-protect", t, true); err != nil {
			s.t.Fatal(err)
		}
		s.stale("re-protect twice", t)
	case op < 18:
		if info, ok := s.pick(StateRepairing, nil); ok {
			t := Transition{Kind: Evict, Flow: info.ID, LastError: "core: no feasible embedding"}
			if info.Protection == ProtectionBackup {
				t.Cause = CauseProtectionLost
			}
			if _, err := s.apply("evict", t, true); err != nil {
				s.t.Fatal(err)
			}
			s.stale("evict twice", t)
		}
	case op < 19:
		// Released by its owner mid-repair: the repair's commit and its
		// eviction both find nothing to act on.
		if info, ok := s.pick(StateRepairing, nil); ok {
			if _, err := s.apply("release while repairing", Transition{Kind: Release, Flow: info.ID}, true); err != nil {
				s.t.Fatal(err)
			}
			p, _ := ProblemFor(s.net, info)
			s.stale("repair of a released flow", Transition{Kind: Commit, Flow: info.ID, Repair: true, Info: info, Problem: p, Primary: &core.Solution{}})
			s.stale("eviction of a released flow", Transition{Kind: Evict, Flow: info.ID})
		} else if info, ok := s.pick(StateEvicted, nil); ok {
			if _, err := s.apply("acknowledge tombstone", Transition{Kind: Release, Flow: info.ID}, true); err != nil {
				s.t.Fatal(err)
			}
		}
	}
}

// TestApplyReplayEquivalence is the package's contract, checked after every
// step of a long random history of legal and stale transitions: the live
// state equals the state rebuilt from the records, field for field and
// residual bit for residual bit; the ledger is exactly the seed minus what
// the standing placements reserve; every standing placement validates net
// of itself; and a snapshot round-trip changes nothing. Draining everything
// returns the seed's bits.
func TestApplyReplayEquivalence(t *testing.T) {
	seen := make(map[string]int)
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ncfg := netgen.Default()
		ncfg.Nodes, ncfg.VNFKinds, ncfg.Connectivity = 20+int(seed), 4, 4
		ncfg.LinkCapacity, ncfg.InstanceCapacity = 6, 4
		net := netgen.MustGenerate(ncfg, rng)
		s := &sim{
			t: t, net: net, rng: rng, a: New(net), b: New(net),
			clock: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC), steps: make(map[string]int),
		}
		for i := 0; i < 400; i++ {
			s.step()
		}
		for _, info := range s.a.Flows() {
			if _, err := s.apply("drain", Transition{Kind: Release, Flow: info.ID}, true); err != nil {
				t.Fatal(err)
			}
		}
		for len(s.a.faults) > 0 {
			if _, err := s.apply("drain", Transition{Kind: FaultRestore, Fault: s.a.faults[0]}, true); err != nil {
				t.Fatal(err)
			}
		}
		if err := sameResiduals(net, s.a.ledger, network.NewLedger(net)); err != nil {
			t.Fatalf("seed %d: drained ledger is not the seed: %v", seed, err)
		}
		for name, n := range s.steps {
			seen[name] += n
		}
	}
	t.Logf("steps applied and refused: %v", seen)
	for _, name := range []string{
		"commit", "protected commit", "release", "expire", "fault", "restore", "strand", "failover",
		"backup_loss", "revalidate", "repair re-commit", "re-protect", "evict", "release while repairing",
		"acknowledge tombstone", "moved verdict (refused)", "release twice (refused)",
		"repair of a released flow (refused)", "re-protect twice (refused)",
	} {
		if seen[name] == 0 {
			t.Errorf("no %q step in any history: the schedule does not test it (saw %v)", name, seen)
		}
	}
}

// TestApplyRefusedPairLeavesLedgerExact pins the all-or-nothing protected
// commit at a rate with no exact binary form: a pair whose backup does not
// fit beside its primary is refused, and the live ledger reads bit for bit
// as it did before — no reservation made and released again, which at
// rate 0.1 would leave the edge's usage off by an ulp.
func TestApplyRefusedPairLeavesLedgerExact(t *testing.T) {
	// 0 -e0- 1 -e1- 3, f(1) on node 1; e0 has room for the earlier flow
	// (0.2) and one more 0.1, not two.
	g := graph.New(4)
	e0 := g.MustAddEdge(0, 1, 1, 0.35)
	e1 := g.MustAddEdge(1, 3, 1, 10)
	g.MustAddEdge(0, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	net := network.New(g, network.Catalog{N: 1})
	if err := net.AddInstance(1, 1, 1, 10); err != nil {
		t.Fatal(err)
	}
	place := func() *core.Solution {
		return &core.Solution{
			Layers:   []core.LayerEmbedding{{Nodes: []graph.NodeID{1}, MergerNode: 1, InterPaths: []graph.Path{{From: 0, Edges: []graph.EdgeID{e0}}}}},
			TailPath: graph.Path{From: 1, Edges: []graph.EdgeID{e1}},
		}
	}
	problem := func(rate float64) *core.Problem {
		p, err := ProblemFor(net, FlowInfo{SFC: "1", Src: 0, Dst: 3, Rate: rate, Size: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	st := New(net)
	if _, err := st.Apply(Transition{Kind: Commit, Flow: 1, Problem: problem(0.2), Primary: place()}); err != nil {
		t.Fatal(err)
	}
	before, epoch := ledgerBits(st.ledger), st.ledger.ViewEpoch()
	pair := Transition{Kind: Commit, Flow: 2, Problem: problem(0.1), Primary: place(), Backup: place()}
	if _, err := st.Apply(pair); err == nil {
		t.Fatal("a pair that does not fit together was committed")
	}
	if !slices.Equal(ledgerBits(st.ledger), before) || st.ledger.ViewEpoch() != epoch {
		t.Fatalf("the refused pair moved the live ledger: e0 carries %v, want 0.2", st.ledger.EdgeUsed(e0))
	}
	if _, ok := st.Flow(2); ok || st.Active() != 1 || st.Backups() != 0 {
		t.Fatal("the refused pair left a flow behind")
	}
	// Alone, the primary fits.
	pair.Backup = nil
	if _, err := st.Apply(pair); err != nil {
		t.Fatal(err)
	}
}

// ledgerBits is the ledger's usage and both residual rows, as bits.
func ledgerBits(l *network.Ledger) []uint64 {
	var out []uint64
	for _, row := range [][]float64{l.EdgeResiduals(nil), l.InstanceResiduals(nil)} {
		for _, x := range row {
			out = append(out, math.Float64bits(x))
		}
	}
	for _, e := range l.ExportState().Edges {
		out = append(out, math.Float64bits(e.Used))
	}
	return out
}

// TestWALPayloadGolden pins the on-disk format: the payload bytes of all
// eleven record types for fixed inputs, as the encoders before this
// package wrote them — so a WAL directory written by an older server still
// recovers — and that decoding gives back what was encoded.
func TestWALPayloadGolden(t *testing.T) {
	path := func(from graph.NodeID, e graph.EdgeID) graph.Path {
		return graph.Path{From: from, Edges: []graph.EdgeID{e}}
	}
	primary := &core.Solution{
		Layers:   []core.LayerEmbedding{{Nodes: []graph.NodeID{1}, MergerNode: 1, InterPaths: []graph.Path{path(0, 0)}}},
		TailPath: path(1, 1),
	}
	backup := &core.Solution{
		Layers:   []core.LayerEmbedding{{Nodes: []graph.NodeID{2}, MergerNode: 2, InterPaths: []graph.Path{path(0, 2)}}},
		TailPath: path(2, 3),
	}
	created := time.Date(2026, 3, 4, 5, 6, 7, 890, time.UTC)
	expires := created.Add(90 * time.Second)
	info := FlowInfo{
		ID: 7, SFC: "1", Src: 0, Dst: 3, Rate: 1.5, Size: 2, Alg: "mbbe",
		Cost: Cost{Total: 14, VNF: 10, Link: 4}, Created: created, ExpiresAt: &expires,
		State: StateActive, Protection: ProtectionBackup, BackupActive: true,
		BackupCost: Cost{Total: 16, VNF: 12, Link: 4},
	}
	repaired := info
	repaired.ExpiresAt, repaired.Protection, repaired.BackupActive, repaired.BackupCost = nil, "", false, Cost{}
	repaired.Repairs = 1
	const (
		primaryJSON = `{"Layers":[{"Nodes":[1],"MergerNode":1,"InterPaths":[{"From":0,"Edges":[0]}],"InnerPaths":null}],"TailPath":{"From":1,"Edges":[1]}}`
		backupJSON  = `{"Layers":[{"Nodes":[2],"MergerNode":2,"InterPaths":[{"From":0,"Edges":[2]}],"InnerPaths":null}],"TailPath":{"From":2,"Edges":[3]}}`
	)
	edgeDown := network.Fault{Kind: network.FaultEdgeDown, Link: 3}
	nodeDown := network.Fault{Kind: network.FaultNodeDown, Node: 2}
	degrade := network.Fault{Kind: network.FaultLinkDegrade, Link: 1, Fraction: 0.25}
	linkDown := network.Fault{Kind: network.FaultLinkDown}

	cases := []struct {
		t    Transition
		ch   Change
		typ  wal.Type
		data string
	}{
		{Transition{Kind: Admit, Flow: 7}, Change{}, wal.TypeAdmit, ``},
		{Transition{Kind: Commit, Flow: 7, Primary: primary, Backup: backup}, Change{Info: info}, wal.TypeCommit,
			`{"info":{"id":7,"sfc":"1","src":0,"dst":3,"rate":1.5,"size":2,"alg":"mbbe","cost":{"total":14,"vnf":10,"link":4},"created":"2026-03-04T05:06:07.00000089Z","expires_at":"2026-03-04T05:07:37.00000089Z","state":"active","protection":"backup","backup_active":true,"backup_cost":{"total":16,"vnf":12,"link":4}},"sol":` + primaryJSON + `,"backup":` + backupJSON + `}`},
		{Transition{Kind: Commit, Flow: 7, Primary: primary, Repair: true}, Change{Info: repaired}, wal.TypeCommit,
			`{"info":{"id":7,"sfc":"1","src":0,"dst":3,"rate":1.5,"size":2,"alg":"mbbe","cost":{"total":14,"vnf":10,"link":4},"created":"2026-03-04T05:06:07.00000089Z","state":"active","repairs":1,"backup_cost":{"total":0,"vnf":0,"link":0}},"sol":` + primaryJSON + `}`},
		{Transition{Kind: Release, Flow: 7}, Change{Info: info}, wal.TypeRelease, ``},
		{Transition{Kind: Expire, Flow: 7}, Change{Info: info}, wal.TypeExpire, ``},
		{Transition{Kind: Evict, Flow: 7, LastError: "core: no feasible embedding", Cause: CauseProtectionLost}, Change{}, wal.TypeEvict,
			`{"last_error":"core: no feasible embedding","cause":"protection_lost"}`},
		{Transition{Kind: Evict, Flow: 7}, Change{}, wal.TypeEvict, `{}`},
		{Transition{Kind: FaultApply, Fault: edgeDown}, Change{}, wal.TypeFaultApply, `{"kind":"edge-down","link":3}`},
		{Transition{Kind: FaultRestore, Fault: nodeDown}, Change{}, wal.TypeFaultRestore, `{"kind":"node-down","node":2}`},
		{Transition{Kind: Strand, Flow: 7, Fault: degrade, Primary: primary}, Change{}, wal.TypeStrand, `{"kind":"link-degrade","link":1,"fraction":0.25}`},
		{Transition{Kind: Backup, Flow: 7, Primary: primary, Backup: backup}, Change{Info: info}, wal.TypeBackup,
			`{"sol":` + backupJSON + `,"cost":{"total":16,"vnf":12,"link":4}}`},
		{Transition{Kind: Failover, Flow: 7, Fault: linkDown, Primary: primary, Backup: backup}, Change{}, wal.TypeFailover, `{"kind":"link-down"}`},
		{Transition{Kind: BackupLoss, Flow: 7, Fault: edgeDown, Primary: primary, Backup: backup}, Change{}, wal.TypeBackupLoss, `{"kind":"edge-down","link":3}`},
	}
	net := network.New(graph.New(4), network.Catalog{N: 1})
	var enc Encoder
	types := make(map[wal.Type]bool)
	for _, c := range cases {
		rec, ok, err := enc.Encode(c.t, c.ch)
		if err != nil || !ok || rec.Type != c.typ || rec.Flow != c.t.Flow || string(rec.Data) != c.data {
			t.Errorf("%s record: ok=%v err=%v type=%s flow=%d payload\n %s\nwant type=%s flow=%d payload\n %s", c.typ, ok, err, rec.Type, rec.Flow, rec.Data, c.typ, c.t.Flow, c.data)
			continue
		}
		types[rec.Type] = true
		back, err := Decode(net, wal.Record{Type: c.typ, Flow: c.t.Flow, Data: []byte(c.data)})
		if err != nil {
			t.Errorf("%s record does not decode: %v", c.typ, err)
			continue
		}
		// What a record gives back: the kind, the flow, the fault, the
		// eviction's words, the placements it carries — never the guards.
		want := Transition{Kind: c.t.Kind, Flow: c.t.Flow, Fault: c.t.Fault, LastError: c.t.LastError, Cause: c.t.Cause}
		switch c.t.Kind {
		case Commit:
			want.Info, want.Primary, want.Backup = c.ch.Info, c.t.Primary, c.t.Backup
			if back.Problem == nil || back.Problem.Rate != c.ch.Info.Rate || back.Problem.Ledger != nil {
				t.Errorf("decoded commit's problem: %+v", back.Problem)
			}
			back.Problem = nil
		case Backup:
			want.Backup, want.Info.BackupCost = c.t.Backup, c.ch.Info.BackupCost
		}
		if !sameJSON(back, want) {
			t.Errorf("%s record decodes to\n %+v\nwant\n %+v", c.typ, back, want)
		}
	}
	if len(types) != 11 {
		t.Errorf("golden covers %d record types, want all 11", len(types))
	}
	for _, k := range []Kind{Revalidate} {
		if _, ok, _ := enc.Encode(Transition{Kind: k, Flow: 7}, Change{}); ok {
			t.Errorf("transition kind %d changes nothing durable but was framed into a record", k)
		}
	}
}
