package main

import (
	"fmt"
	"runtime"
	"time"

	"dagsfc/internal/core"
)

// roundResult is what one replay of the op sequence measured. A round
// starts and ends on an empty ledger.
type roundResult struct {
	// Ops is the number of admission attempts: the whole op sequence.
	Ops      int
	Accepted int
	// Errors counts attempts that ended in anything but an acceptance or
	// a capacity rejection (5xx, 409, 429, timeouts, failed releases and
	// fault calls). Must be 0.
	Errors int
	// Wall runs from the first request to the last reply, releases
	// included; the end-of-round drain is outside it.
	Wall time.Duration
	// Lat holds one admission latency per attempt, in ms: request sent →
	// placement and reservation acknowledged. Rejections are included.
	Lat []float64
	// CostSum is the eq. (1) cost of the accepted flows, primary plus
	// reserved backup; Costs is the same per op (0 for a non-accept), kept
	// to compare rounds exactly.
	CostSum float64
	Costs   []float64
	// HeapLive is HeapAlloc after two GCs at the end-of-submit barrier,
	// with the standing flows still reserved.
	HeapLive uint64
	// Before and After bracket exactly the Wall interval; MaxPause is the
	// longest GC stop-the-world pause inside it.
	Before, After procSample
	MaxPause      time.Duration
	// Stats sums core.Result.Stats over accepted embeds (library
	// workloads, where the benchmark sees the Result).
	Stats core.Stats
	// FaultLat holds the fault-apply call latencies, in ms.
	FaultLat []float64
}

// closeWall stamps the end of the timed interval that began at start.
func (r *roundResult) closeWall(start time.Time) {
	r.Wall = time.Since(start)
	r.After = sampleProc()
	r.MaxPause = maxGCPause(r.Before, r.After)
	r.HeapLive = heapLive()
}

func (r roundResult) p50() float64        { return quantile(r.Lat, 0.50) }
func (r roundResult) p99() float64        { return quantile(r.Lat, 0.99) }
func (r roundResult) admitsPerS() float64 { return float64(r.Ops) / r.Wall.Seconds() }
func (r roundResult) acceptRatio() float64 {
	return float64(r.Accepted) / float64(r.Ops)
}
func (r roundResult) costPerFlow() float64 {
	if r.Accepted == 0 {
		return 0
	}
	return r.CostSum / float64(r.Accepted)
}
func (r roundResult) cpuMsPerOp() float64 {
	return float64(r.After.CPU-r.Before.CPU) / 1e6 / float64(r.Ops)
}
func (r roundResult) allocsPerOp() float64 {
	return float64(r.After.Mallocs-r.Before.Mallocs) / float64(r.Ops)
}
func (r roundResult) heapLiveMB() float64 { return float64(r.HeapLive) / (1 << 20) }

// runner is one started program under one workload: the library ledger,
// or the server with its listener and clients.
type runner interface {
	// round replays ops once, from an empty ledger back to an empty
	// ledger. A non-nil tracer turns on spans and the extra per-layer
	// probes; measured rounds pass nil.
	round(ops []op, faults []faultEvent, tr *tracer) (roundResult, error)
	// check verifies the post-round invariants: residuals equal the seed
	// snapshot float-exactly, no flow active, no backup reserved, no
	// worker panic.
	check() error
	close() error
}

// setUp builds the substrate, starts the program and replays the warm-up
// prefix. The whole call is what setup_s times.
func setUp(sp spec, in inputs, outDir string) (runner, error) {
	var (
		r   runner
		err error
	)
	if sp.Serve {
		r, err = newServeRunner(sp, outDir)
	} else {
		r, err = newLibRunner(sp)
	}
	if err != nil {
		return nil, err
	}
	warm := in.Ops[:sp.warmupOps()]
	res, err := r.round(warm, faultsBefore(in.Faults, len(warm)), nil)
	if err == nil && res.Errors > 0 {
		err = fmt.Errorf("%d of %d warm-up ops failed", res.Errors, res.Ops)
	}
	if err == nil {
		err = r.check()
	}
	if err != nil {
		_ = r.close() // the set-up error is the one to report
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return r, nil
}

// faultsBefore keeps the schedule entries that apply and restore within
// the first n ops.
func faultsBefore(fs []faultEvent, n int) []faultEvent {
	var out []faultEvent
	for _, f := range fs {
		if f.Restore < n {
			out = append(out, f)
		}
	}
	return out
}

// measured is a workload's untraced result: set-up times and R rounds.
type measured struct {
	Setups []float64 // seconds
	Rounds []roundResult
}

// measure runs the set-ups and the measured rounds and leaves the last
// runner started, for the traced pass to reuse.
func measure(sp spec, in inputs, outDir string, nSetups, nRounds int) (measured, runner, error) {
	var m measured
	var r runner
	for i := 0; i < nSetups; i++ {
		if r != nil {
			if err := r.close(); err != nil {
				return m, nil, err
			}
			r = nil
		}
		runtime.GC()
		begin := time.Now()
		var err error
		if r, err = setUp(sp, in, outDir); err != nil {
			return m, nil, err
		}
		m.Setups = append(m.Setups, time.Since(begin).Seconds())
	}
	for i := 0; i < nRounds; i++ {
		runtime.GC()
		res, err := r.round(in.Ops, in.Faults, nil)
		if err == nil {
			err = r.check()
		}
		if err != nil {
			_ = r.close() // the round's error is the one to report
			return m, nil, fmt.Errorf("round %d: %w", i+1, err)
		}
		m.Rounds = append(m.Rounds, res)
	}
	return m, r, nil
}
