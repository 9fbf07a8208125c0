// Package online is the offline, virtual-clock driver of the flow state
// machine (internal/flowstate): one goroutine walks a timeline of flow
// arrivals and departures, and optionally a fault schedule, embedding each
// arrival on the residual network its predecessors left (the "real-time
// network graph" of Algorithm 1 across many flows) and moving all capacity
// through the flowstate.Apply the server and its WAL replay use. Run,
// RunChurn and RunFailures are three timelines over it; they report the
// acceptance, cost and repair statistics of the standard online-NFV
// evaluation, which the paper's model supports but does not itself sweep.
package online

import (
	"math"
	"math/rand"
	"time"

	"dagsfc/internal/core"
	"dagsfc/internal/faults"
	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/sfcgen"
	"dagsfc/internal/stats"
)

// Request is one flow to embed.
type Request struct {
	SFC  sfc.DAGSFC
	Src  graph.NodeID
	Dst  graph.NodeID
	Rate float64
	Size float64
}

// Embedder abstracts the embedding algorithm under test.
type Embedder func(p *core.Problem) (*core.Result, error)

// Outcome records what happened to one request.
type Outcome struct {
	Accepted bool
	Cost     float64
	// Latency is the wall time this request took end to end: the embedding
	// attempt plus, when accepted, the commit.
	Latency time.Duration
	Err     error
}

// Report aggregates a run.
type Report struct {
	Outcomes  []Outcome
	Accepted  int
	Rejected  int
	TotalCost float64
	// CommitFailures counts rejections where the embed succeeded but the
	// commit against the shared ledger failed — a defensive branch in the
	// offline harnesses, a real stale-snapshot conflict in the server.
	CommitFailures int
}

// AcceptanceRatio is accepted / total (0 for an empty run).
func (r Report) AcceptanceRatio() float64 {
	n := len(r.Outcomes)
	if n == 0 {
		return 0
	}
	return float64(r.Accepted) / float64(n)
}

// LatencySummary aggregates the per-request latencies, in seconds.
func (r Report) LatencySummary() stats.Summary {
	var a stats.Accumulator
	for _, o := range r.Outcomes {
		a.Add(o.Latency.Seconds())
	}
	return a.Summarize()
}

// TimedRequest is a flow with an arrival time and a holding duration;
// its capacity is released when it departs.
type TimedRequest struct {
	Request
	Arrival  float64
	Duration float64
}

// ChurnReport extends Report with occupancy statistics.
type ChurnReport struct {
	Report
	// PeakActive is the largest number of simultaneously embedded flows.
	PeakActive int
}

// RepairRecord is one entry of a failure run's repair log: what happened
// to request Idx when the fault at Time struck. The log's order is fully
// determined by the inputs — same requests, schedule and embedder ⇒ same
// log — which is the determinism contract the chaos tests assert.
type RepairRecord struct {
	Time  float64
	Fault network.Fault
	Idx   int
	// Outcome is "revalidated" (the embedding survived the fault in
	// place), "repaired" (released and successfully re-embedded) or
	// "evicted" (re-embed failed; the flow is lost).
	Outcome string
}

// FailureReport extends ChurnReport with the fault injector's and repair
// loop's accounting.
type FailureReport struct {
	ChurnReport
	FaultsApplied  int
	FaultsRestored int
	// Revalidated counts fault-hit flows that kept their embedding;
	// Repaired those re-embedded onto new resources; Evicted those lost.
	Revalidated int
	Repaired    int
	Evicted     int
	RepairLog   []RepairRecord
}

// Run embeds the requests in order, none ever departing, on the residual
// network the accepted ones before it left. A request whose embedding
// fails (core.ErrNoEmbedding) or whose placement the ledger refuses at
// commit time is rejected and consumes nothing; any other embedder error
// aborts the run.
func Run(net *network.Network, reqs []Request, embed Embedder) (Report, error) {
	timed := make([]TimedRequest, len(reqs))
	for i, r := range reqs {
		timed[i] = TimedRequest{Request: r, Duration: math.Inf(1)}
	}
	report, err := simulate(net, timed, nil, embed)
	return report.Report, err
}

// RunChurn processes timed requests in event order: at each arrival the
// flow is embedded (or rejected, by Run's rule) against the current
// residual network; at each departure its reservations are released,
// departures before arrivals at equal timestamps. This exercises the
// paper's "real-time network graph" under realistic flow churn, where
// capacity freed by departures can admit later flows a static run would
// reject.
func RunChurn(net *network.Network, reqs []TimedRequest, embed Embedder) (ChurnReport, error) {
	report, err := simulate(net, reqs, nil, embed)
	return report.ChurnReport, err
}

// RunFailures is the offline survivability harness: RunChurn while a fault
// schedule replays against the same state. When an applied fault strands
// an active flow (its embedding traverses the failed element and no
// longer validates), the flow's resources are released and it is
// re-embedded against the post-fault network; flows that cannot be
// re-embedded are evicted. Everything is single-threaded and
// deterministic: same inputs, same report.
func RunFailures(net *network.Network, reqs []TimedRequest, sched faults.Schedule, embed Embedder) (FailureReport, error) {
	return simulate(net, reqs, sched, embed)
}

// RandomRequests draws n requests with the given SFC generator config,
// uniform src/dst pairs and a fixed rate/size — the workload of the
// online example and tests.
func RandomRequests(net *network.Network, cfg sfcgen.Config, n int, rate, size float64, rng *rand.Rand) []Request {
	reqs := make([]Request, n)
	nodes := net.G.NumNodes()
	for i := range reqs {
		s := sfcgen.MustGenerate(cfg, rng)
		src := graph.NodeID(rng.Intn(nodes))
		dst := graph.NodeID(rng.Intn(nodes))
		for dst == src && nodes > 1 {
			dst = graph.NodeID(rng.Intn(nodes))
		}
		reqs[i] = Request{SFC: s, Src: src, Dst: dst, Rate: rate, Size: size}
	}
	return reqs
}

// RandomTimedRequests draws n Poisson-ish arrivals (exponential
// inter-arrival gaps with the given mean) holding for an exponential
// duration with the given mean.
func RandomTimedRequests(net *network.Network, cfg sfcgen.Config, n int,
	rate, size, meanGap, meanHold float64, rng *rand.Rand) []TimedRequest {

	base := RandomRequests(net, cfg, n, rate, size, rng)
	out := make([]TimedRequest, n)
	clock := 0.0
	for i, r := range base {
		clock += rng.ExpFloat64() * meanGap
		out[i] = TimedRequest{
			Request:  r,
			Arrival:  clock,
			Duration: rng.ExpFloat64() * meanHold,
		}
	}
	return out
}
