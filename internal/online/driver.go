package online

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/flowstate"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
)

// Event kinds, in the order they fire at equal timestamps: departures
// release capacity first, then restores return quarantined capacity, then
// faults strike (and repairs run against the freshest view), then arrivals
// are admitted. Remaining ties break on the request or incident index.
const (
	evDeparture = iota
	evRestore
	evStrike
	evArrival
)

type event struct {
	at   float64
	kind int
	idx  int // request index, or schedule incident for the fault kinds
	flt  network.Fault
}

// driver walks one timeline over one flow state on a virtual clock. Request
// i is flow i of the state; every reservation enters and leaves the ledger
// through apply.
type driver struct {
	net   *network.Network
	reqs  []TimedRequest
	embed Embedder
	state *flowstate.State
	// snap and scratch are recycled: the what-if copy embeds and verdicts
	// read, and the copy of it a verdict releases a flow into.
	snap, scratch *network.Ledger
	report        FailureReport
	// applied, when set (tests only), sees every transition that applied.
	applied func(flowstate.Transition, flowstate.Change)
}

func newDriver(net *network.Network, reqs []TimedRequest, embed Embedder) *driver {
	return &driver{
		net: net, reqs: reqs, embed: embed, state: flowstate.New(net), scratch: new(network.Ledger),
		report: FailureReport{ChurnReport: ChurnReport{Report: Report{Outcomes: make([]Outcome, len(reqs))}}},
	}
}

// simulate is the driver behind Run, RunChurn and RunFailures.
func simulate(net *network.Network, reqs []TimedRequest, sched faults.Schedule, embed Embedder) (FailureReport, error) {
	d := newDriver(net, reqs, embed)
	err := d.run(sched)
	return d.report, err
}

func (d *driver) apply(t flowstate.Transition) (flowstate.Change, error) {
	ch, err := d.state.Apply(t)
	if err == nil && d.applied != nil {
		d.applied(t, ch)
	}
	return ch, err
}

func (d *driver) run(sched faults.Schedule) error {
	if err := sched.Validate(d.net); err != nil {
		return err
	}
	events := make([]event, 0, 2*(len(d.reqs)+len(sched)))
	for i, r := range d.reqs {
		if r.Duration < 0 {
			return fmt.Errorf("online: request %d has negative duration", i)
		}
		events = append(events,
			event{at: r.Arrival, kind: evArrival, idx: i},
			event{at: r.Arrival + r.Duration, kind: evDeparture, idx: i})
	}
	for _, ev := range sched.Events() {
		kind := evRestore
		if ev.Apply {
			kind = evStrike
		}
		events = append(events, event{at: ev.At, kind: kind, idx: ev.Incident, flt: ev.Fault})
	}
	slices.SortStableFunc(events, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.kind, b.kind), cmp.Compare(a.idx, b.idx))
	})
	for _, ev := range events {
		var err error
		switch ev.kind {
		case evDeparture:
			// Stale: rejected at arrival, it never stood.
			if _, err = d.apply(flowstate.Transition{Kind: flowstate.Release, Flow: int64(ev.idx)}); errors.Is(err, flowstate.ErrStale) {
				err = nil
			}
		case evRestore:
			if _, err = d.apply(flowstate.Transition{Kind: flowstate.FaultRestore, Fault: ev.flt}); err == nil {
				d.report.FaultsRestored++
			}
		case evStrike:
			err = d.strike(ev.at, ev.flt)
		case evArrival:
			err = d.arrive(ev.idx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// place is the one embed → commit block: flow idx is embedded on a
// snapshot of the live ledger and its placement committed, as a new flow
// or (repair) under the identity it was stranded with. The commit carries
// no priced usage — an Embedder is caller-supplied code — so Apply
// evaluates the placement in full before reserving anything. embedded
// tells an embedder error from the ledger refusing the placement.
func (d *driver) place(idx int, repair bool) (res *core.Result, embedded bool, err error) {
	req := d.reqs[idx]
	p := &core.Problem{Net: d.net, SFC: req.SFC, Src: req.Src, Dst: req.Dst, Rate: req.Rate, Size: req.Size}
	d.snap = d.state.SnapshotInto(d.snap)
	search := *p
	search.Ledger = d.snap
	if res, err = d.embed(&search); err != nil {
		return nil, false, err
	}
	ch, err := d.apply(flowstate.Transition{
		Kind: flowstate.Commit, Flow: int64(idx), Repair: repair, Problem: p, Primary: res.Solution,
		Info: flowstate.FlowInfo{
			ID: int64(idx), SFC: sfc.Format(req.SFC), Src: int(req.Src), Dst: int(req.Dst), Rate: req.Rate, Size: req.Size,
			State: flowstate.StateActive, Cost: flowstate.CostOf(res.Cost),
		},
	})
	if err != nil {
		return nil, true, err
	}
	d.report.PeakActive = max(d.report.PeakActive, ch.Active)
	return res, true, nil
}

// arrive admits or rejects request idx. Only an embedding that does not
// exist (core.ErrNoEmbedding) or a placement the ledger refuses is a
// rejection; any other embedder error — a malformed problem, a bug — ends
// the run instead of posing as a plausible acceptance ratio.
func (d *driver) arrive(idx int) error {
	begin := time.Now()
	res, embedded, err := d.place(idx, false)
	latency := time.Since(begin)
	if err != nil {
		if embedded {
			d.report.CommitFailures++
			telemetry.RecordOnlineCommitFailure()
		} else if !errors.Is(err, core.ErrNoEmbedding) {
			return err
		}
		d.report.Outcomes[idx] = Outcome{Err: err, Latency: latency}
		d.report.Rejected++
		telemetry.RecordOnlineRequest(false, latency)
		return nil
	}
	d.report.Outcomes[idx] = Outcome{Accepted: true, Cost: res.Cost.Total(), Latency: latency}
	d.report.Accepted++
	d.report.TotalCost += res.Cost.Total()
	telemetry.RecordOnlineRequest(true, latency)
	return nil
}

// strike applies fault f and settles every flow it hits, in ascending
// request order: the verdict (flowstate.Verdict, on a snapshot that already
// holds what the flows before it did about f); a flow that survives stays,
// one that does not is stranded and re-embedded through place, and if that
// fails for any reason it is evicted.
func (d *driver) strike(at float64, f network.Fault) error {
	if _, err := d.apply(flowstate.Transition{Kind: flowstate.FaultApply, Fault: f}); err != nil {
		return err
	}
	d.report.FaultsApplied++
	for _, pl := range d.state.Placements() {
		if !faults.Hits(d.net, pl.Primary, f) {
			continue
		}
		d.snap = d.state.SnapshotInto(d.snap)
		verdict := flowstate.Verdict(d.snap, pl, f, d.scratch)
		if _, err := d.apply(verdict); err != nil {
			return fmt.Errorf("online: fault verdict on flow %d: %v", pl.ID, err)
		}
		outcome, count := "revalidated", &d.report.Revalidated
		if verdict.Kind == flowstate.Strand {
			outcome, count = "repaired", &d.report.Repaired
			if _, _, err := d.place(int(pl.ID), true); err != nil {
				outcome, count = "evicted", &d.report.Evicted
				if _, err := d.apply(flowstate.Transition{Kind: flowstate.Evict, Flow: pl.ID, Fault: f, LastError: err.Error()}); err != nil {
					return fmt.Errorf("online: eviction of flow %d: %v", pl.ID, err)
				}
			}
		}
		*count++
		d.report.RepairLog = append(d.report.RepairLog, RepairRecord{Time: at, Fault: f, Idx: int(pl.ID), Outcome: outcome})
		telemetry.RecordRepair(outcome)
	}
	return nil
}
