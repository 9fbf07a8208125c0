package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json at the repo root, the contract the driver
// reads. The tables in metrics.go and workloads.go are what the program
// actually reports; this test keeps the two in step.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, but the op counts are sized for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}

	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		checkName(w.Name)
		if w.Name != specs[i].Name || w.Why != specs[i].Why {
			t.Errorf("workload %d: manifest %q / %q differs from the program's %q / %q", i, w.Name, w.Why, specs[i].Name, specs[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, g := range got {
			checkName(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || !unit.MatchString(g.Unit) {
				t.Errorf("%s %d: manifest %+v, program %+v", kind, i, g, w)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v, program %v", kind, g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", m.EndToEnd, endToEnd, true)
	compare("per_layer", m.PerLayer, perLayer, false)

	var setup *manifestMetric
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s must be an end-to-end metric in s, lower is better: %+v", setup)
	}
	for _, d := range perLayer {
		if d.layer() == "" {
			t.Errorf("per-layer metric %s names no layer", d.Name)
		}
	}
	// The demoted timings keep their issue bounds for -aa and are
	// reported as the first per-layer metrics.
	for i, d := range timings {
		if p := perLayer[i]; p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better || d.layer() != "e2e" || d.Bound <= 0 || d.Bound > 0.15 {
			t.Errorf("timing %+v is not per-layer metric %d %+v", d, i, p)
		}
	}
}
