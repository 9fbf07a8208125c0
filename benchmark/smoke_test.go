package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestSmokeAllWorkloads runs every workload at 1/50 of its op count, both
// as the measured and as the traced run. The numbers mean nothing at that
// size; the point is that every correctness check executes — validator
// and cost agreement per op, ledger back at the seed after each round, no
// backup or flow left, no worker panic, cross-round determinism, WAL
// recovery equal to the live state — and that every metric the manifest
// promises comes out as a finite number.
func TestSmokeAllWorkloads(t *testing.T) {
	layers := map[string]map[string]float64{} // workload → per-layer metric → value
	for _, sp := range specs {
		sp := sp.scaled(refSeconds, true)
		for _, traced := range []bool{false, true} {
			out := t.TempDir()
			var log bytes.Buffer
			res, err := runWorkload(&log, sp, 3, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", sp.Name, traced, err, log.String())
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 || traced != (res.Timings == nil) {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					sp.Name, traced, res.Correct, res.Attempted, res.Failed, log.String())
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", sp.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				mv, ok := res.Metrics[d.Name]
				if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", sp.Name, traced, d.Name, mv, ok)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", sp.Name, d.Name, mv.Value)
				}
			}
			for _, d := range timings {
				v := res.Timings[d.Name]
				if traced {
					v = res.Metrics[d.Name].Value
				}
				if !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: timing %s = %v", sp.Name, traced, d.Name, v)
				}
			}
			if traced {
				layers[sp.Name] = map[string]float64{}
				for k, v := range res.Metrics {
					layers[sp.Name][k] = v.Value
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", sp.Name, traced, err)
			}
			_, err = os.Stat(filepath.Join(out, sp.Name+".trace.json"))
			if traced != (err == nil) {
				t.Errorf("%s traced=%v: trace file: %v", sp.Name, traced, err)
			}
			left, _ := filepath.Glob(filepath.Join(out, "wal-*"))
			if len(left) > 0 {
				t.Errorf("%s traced=%v: scratch WAL directories left behind: %v", sp.Name, traced, left)
			}
		}
	}
	if !t.Failed() {
		layersLoadAndBypass(t, layers)
	}
}

// layersLoadAndBypass pins the property the four workloads were chosen
// for: each layer works on one workload and idles on another.
func layersLoadAndBypass(t *testing.T, layers map[string]map[string]float64) {
	parallel, serial := layers["embed-parallel"], layers["embed-serial"]
	durable, protect := layers["serve-durable"], layers["serve-protect-faults"]

	if m := "core.extensions_per_op"; parallel[m] <= 2*serial[m] {
		t.Errorf("%s: parallel %v, serial %v — the parallel-layer machinery should idle on chains", m, parallel[m], serial[m])
	}
	if serial["graph.trees_per_op"] <= parallel["graph.trees_per_op"] {
		t.Errorf("Dijkstra trees/op: serial %v, parallel %v", serial["graph.trees_per_op"], parallel["graph.trees_per_op"])
	}
	for _, m := range []string{"wal.records_per_op", "wal.fsyncs_per_op", "wal.append_us", "server.ttl_expiries_per_op"} {
		if durable[m] <= 0 || protect[m] != 0 || parallel[m] != 0 {
			t.Errorf("%s: durable %v, protect %v, embed-parallel %v", m, durable[m], protect[m], parallel[m])
		}
	}
	for _, m := range []string{"core.backup_embed_ms_p50", "network.fault_apply_ms"} {
		if protect[m] <= 0 || durable[m] != 0 || parallel[m] != 0 {
			t.Errorf("%s: protect %v, durable %v, embed-parallel %v", m, protect[m], durable[m], parallel[m])
		}
	}
	// A loaded link going down strands a primary (failover if the flow is
	// protected, repair if not) or a backup (re-protect); which, at smoke
	// size, is the seed's luck.
	consequences := func(l map[string]float64) float64 {
		return l["server.failovers"] + l["server.repairs"] + l["server.reprotects"]
	}
	if consequences(protect) <= 0 || consequences(durable) != 0 || consequences(parallel) != 0 {
		t.Errorf("fault consequences: protect %v, durable %v, embed-parallel %v", consequences(protect), consequences(durable), consequences(parallel))
	}
	// The only refusals: a protected admission at an endpoint no disjoint
	// backup can leave from.
	if serial["core.capacity_rejections_per_op"] != 0 {
		t.Errorf("embed-serial rejects on ample capacity: %v", serial["core.capacity_rejections_per_op"])
	}
	for _, m := range []string{"server.submit_ms_p50", "http.release_ms", "journal.events_per_op"} {
		if durable[m] <= 0 || protect[m] <= 0 || parallel[m] != 0 || serial[m] != 0 {
			t.Errorf("%s: durable %v, protect %v, parallel %v, serial %v", m, durable[m], protect[m], parallel[m], serial[m])
		}
	}
}
