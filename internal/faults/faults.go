// Package faults provides the deterministic fault injector of the
// survivability layer: seeded, scripted schedules of substrate faults
// (link down, node down, capacity degradation) replayed against anything
// that can apply a network.Fault — a raw ledger in the offline harnesses,
// the serving control plane over its repair-aware entry points, or a
// remote server over HTTP via dagsfc-load's client adapter.
//
// Schedules are plain data: a list of incidents, each a fault held for a
// duration. The same schedule replayed against the same initial state
// produces the same sequence of apply/restore calls in the same order —
// the property the chaos invariant tests pin down.
package faults

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
)

// Incident is one scheduled fault: it strikes at At and is repaired
// Duration later. Times are in abstract schedule units — seconds for the
// live injector (scaled by Replay), simulation time for online harnesses.
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
// (counts are enough — the generator never needs the topology, so the
// wire driver can build schedules from a remote server's /v1/network
// view).
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

// Format renders the schedule in the line-oriented text form Parse reads:
//
//	# comment
//	<at> <duration> link-down <edge>
//	<at> <duration> node-down <node>
//	<at> <duration> link-degrade <edge> <fraction>
//	<at> <duration> edge-down <edge>
func (s Schedule) Format() string {
	var b strings.Builder
	for _, inc := range s {
		fmt.Fprintf(&b, "%g %g %s\n", inc.At, inc.Duration, inc.Fault)
	}
	return b.String()
}

// ParseKind maps a fault kind's text form ("link-down", "node-down",
// "link-degrade", "edge-down" — the strings network.FaultKind.String
// produces) back to the kind. The schedule parser and the server's JSON
// fault endpoints share it.
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

// Parse reads the text form written by Format. Blank lines and #-comments
// are skipped. The result is structurally validated (without a network —
// pass the schedule through Validate(net) to range-check targets).
func Parse(r io.Reader) (Schedule, error) {
	var s Schedule
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 4 {
			return nil, fmt.Errorf("faults: line %d: want '<at> <dur> <kind> <target> [frac]', got %q", line, text)
		}
		at, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad start time %q", line, fields[0])
		}
		dur, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad duration %q", line, fields[1])
		}
		target, err := strconv.Atoi(fields[3])
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: bad target %q", line, fields[3])
		}
		inc := Incident{At: at, Duration: dur}
		kind, err := ParseKind(fields[2])
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: unknown fault kind %q", line, fields[2])
		}
		switch kind {
		case network.FaultLinkDown, network.FaultEdgeDown:
			inc.Fault = network.Fault{Kind: kind, Link: graph.EdgeID(target)}
		case network.FaultNodeDown:
			inc.Fault = network.Fault{Kind: kind, Node: graph.NodeID(target)}
		case network.FaultLinkDegrade:
			if len(fields) < 5 {
				return nil, fmt.Errorf("faults: line %d: link-degrade needs a fraction", line)
			}
			frac, err := strconv.ParseFloat(fields[4], 64)
			if err != nil {
				return nil, fmt.Errorf("faults: line %d: bad fraction %q", line, fields[4])
			}
			inc.Fault = network.Fault{Kind: kind, Link: graph.EdgeID(target), Fraction: frac}
		}
		s = append(s, inc)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := s.Validate(nil); err != nil {
		return nil, err
	}
	return s, nil
}
