// Package faults holds the survivability layer's fault schedules: seeded
// plans of substrate faults (link down, node down, capacity degradation,
// edge down), each a fault held for a duration, expanded into one ordered
// list of apply and restore events. The virtual-clock driver of
// internal/online plays them against its ledger, and the server's chaos
// test against a live control plane; Hits is the predicate that decides
// which committed flows a fault strands.
//
// Schedules are plain data. The same schedule played against the same
// initial state produces the same sequence of apply/restore calls in the
// same order — the property the chaos invariant tests pin down.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// Incident is one scheduled fault: it strikes at At and is repaired
// Duration later. Times are in abstract schedule units: simulation time
// for the online driver, a wall-clock scale of the test's choosing for
// the server's chaos test.
type Incident struct {
	At       float64
	Duration float64
	Fault    network.Fault
}

// Schedule is an ordered set of incidents. The zero value is an empty
// schedule.
type Schedule []Incident

// Validate reports the first structural problem: a negative or non-finite
// start, a non-positive or NaN duration, a degrade fraction outside (0,1],
// bad fault targets (checked against net when non-nil). The comparisons are
// written so that NaN fails them.
func (s Schedule) Validate(net *network.Network) error {
	for i, inc := range s {
		if !(inc.At >= 0) || math.IsInf(inc.At, 1) {
			return fmt.Errorf("faults: incident %d starts at invalid time %v", i, inc.At)
		}
		if !(inc.Duration > 0) {
			return fmt.Errorf("faults: incident %d has non-positive duration %v", i, inc.Duration)
		}
		if f := inc.Fault.Fraction; inc.Fault.Kind == network.FaultLinkDegrade && !(f > 0 && f <= 1) {
			return fmt.Errorf("faults: incident %d: degrade fraction %v outside (0,1]", i, f)
		}
		if net != nil {
			if err := inc.Fault.Validate(net); err != nil {
				return fmt.Errorf("faults: incident %d: %w", i, err)
			}
		}
	}
	return nil
}

// Event is one apply or restore transition of an incident's fault.
type Event struct {
	At    float64
	Apply bool
	Fault network.Fault
	// Incident is the index into the source Schedule.
	Incident int
}

// Events expands the schedule into its ordered transition list: time
// ascending; at equal times restores fire before applies (capacity comes
// back before new faults claim it, as in the offline driver's event order
// in internal/online); remaining ties break on incident index. The
// schedule itself is not modified.
func (s Schedule) Events() []Event {
	evs := make([]Event, 0, 2*len(s))
	for i, inc := range s {
		evs = append(evs, Event{At: inc.At, Apply: true, Fault: inc.Fault, Incident: i})
		evs = append(evs, Event{At: inc.At + inc.Duration, Apply: false, Fault: inc.Fault, Incident: i})
	}
	sort.SliceStable(evs, func(a, b int) bool {
		if evs[a].At != evs[b].At {
			return evs[a].At < evs[b].At
		}
		if evs[a].Apply != evs[b].Apply {
			return !evs[a].Apply
		}
		return evs[a].Incident < evs[b].Incident
	})
	return evs
}

// GenConfig parameterizes Generate. Nodes/Edges describe the substrate
// (counts are enough — the generator never needs the topology).
type GenConfig struct {
	Nodes, Edges int
	// Count is the number of incidents to draw.
	Count int
	// MeanGap is the mean exponential gap between incident starts;
	// MeanHold the mean exponential fault duration.
	MeanGap, MeanHold float64
	// NodeFrac is the probability an incident is a node failure;
	// DegradeFrac the probability a link incident is a degradation rather
	// than an outage. Both in [0,1].
	NodeFrac, DegradeFrac float64
}

// Generate draws a seeded schedule: incident starts follow exponential
// gaps, durations exponential holds, targets uniform over the substrate.
// The same rng state yields the same schedule.
func Generate(cfg GenConfig, rng *rand.Rand) (Schedule, error) {
	switch {
	case cfg.Nodes < 1 || cfg.Edges < 1:
		return nil, fmt.Errorf("faults: substrate %d nodes / %d edges too small", cfg.Nodes, cfg.Edges)
	case cfg.Count < 0:
		return nil, fmt.Errorf("faults: negative incident count %d", cfg.Count)
	case cfg.MeanGap <= 0 || cfg.MeanHold <= 0:
		return nil, fmt.Errorf("faults: non-positive mean gap %v / hold %v", cfg.MeanGap, cfg.MeanHold)
	case cfg.NodeFrac < 0 || cfg.NodeFrac > 1 || cfg.DegradeFrac < 0 || cfg.DegradeFrac > 1:
		return nil, fmt.Errorf("faults: fractions outside [0,1]")
	}
	s := make(Schedule, 0, cfg.Count)
	clock := 0.0
	for i := 0; i < cfg.Count; i++ {
		clock += rng.ExpFloat64() * cfg.MeanGap
		inc := Incident{
			At: clock,
			// A strictly positive floor keeps Validate happy on tiny draws.
			Duration: rng.ExpFloat64()*cfg.MeanHold + 1e-6,
		}
		switch {
		case rng.Float64() < cfg.NodeFrac:
			inc.Fault = network.Fault{Kind: network.FaultNodeDown, Node: graph.NodeID(rng.Intn(cfg.Nodes))}
		case rng.Float64() < cfg.DegradeFrac:
			inc.Fault = network.Fault{
				Kind:     network.FaultLinkDegrade,
				Link:     graph.EdgeID(rng.Intn(cfg.Edges)),
				Fraction: 0.25 + 0.75*rng.Float64(),
			}
		default:
			inc.Fault = network.Fault{Kind: network.FaultLinkDown, Link: graph.EdgeID(rng.Intn(cfg.Edges))}
		}
		s = append(s, inc)
	}
	return s, nil
}

// ParseKind maps a fault kind's text form ("link-down", "node-down",
// "link-degrade", "edge-down" — the strings network.FaultKind.String
// produces) back to the kind, for flowstate.FaultFromWire: the server's
// JSON fault endpoints and the WAL's fault records name a kind this way.
func ParseKind(s string) (network.FaultKind, error) {
	switch s {
	case "link-down":
		return network.FaultLinkDown, nil
	case "node-down":
		return network.FaultNodeDown, nil
	case "link-degrade":
		return network.FaultLinkDegrade, nil
	case "edge-down":
		return network.FaultEdgeDown, nil
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q", s)
}
