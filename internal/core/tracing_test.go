package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"dagsfc/internal/graph"
	"dagsfc/internal/network"
	"dagsfc/internal/sfc"
	"dagsfc/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/trace_outline.golden from TestTraceOutline's runs")

// embedTraced is Embed recording into a fresh trace, finished when Embed
// returns.
func embedTraced(p *Problem, opts Options) (*Result, *telemetry.Trace, error) {
	tr := telemetry.NewTrace("embed")
	opts.Trace = tr.Root()
	res, err := Embed(p, opts)
	tr.Finish()
	return res, tr, err
}

// durationSuffix is the " (12µs)" Render ends every line with.
var durationSuffix = regexp.MustCompile(` \([^()]*\)$`)

// outline renders a trace as -explain does, without the durations: the
// span names and attributes, which a run determines.
func outline(t *testing.T, tr *telemetry.Trace) string {
	t.Helper()
	var b strings.Builder
	if err := tr.Render(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n")
	for i, line := range lines {
		lines[i] = durationSuffix.ReplaceAllString(line, "")
	}
	return strings.Join(lines, "\n") + "\n"
}

// findChildren returns s's direct children with the given name.
func findChildren(s *telemetry.Span, name string) []*telemetry.Span {
	var out []*telemetry.Span
	for _, c := range s.Children() {
		if c.Name() == name {
			out = append(out, c)
		}
	}
	return out
}

// findSpans returns every span below s with the given name, depth first.
func findSpans(s *telemetry.Span, name string) []*telemetry.Span {
	var out []*telemetry.Span
	for _, c := range s.Children() {
		if c.Name() == name {
			out = append(out, c)
		}
		out = append(out, findSpans(c, name)...)
	}
	return out
}

// intAttr reads an int attribute, 0 when absent.
func intAttr(s *telemetry.Span, key string) int {
	n, _ := s.Attr(key).(int)
	return n
}

// hybridFixture builds a three-layer hybrid SFC — [f1] -> [f2|f3 +m] ->
// [f4] — on a line network with exactly one deployment per category, so
// every layer keeps exactly one sub-solution and the whole trace is
// deterministic:
//
//	0 --- 1 --- 2 --- 3
//	f1@0  f2,f3@1  m@2  f4@3       src 0, dst 3
func hybridFixture() *Problem {
	g := graph.New(4)
	g.MustAddEdge(0, 1, 1, 10)
	g.MustAddEdge(1, 2, 1, 10)
	g.MustAddEdge(2, 3, 1, 10)
	net := network.New(g, network.Catalog{N: 4})
	net.MustAddInstance(0, 1, 10, 10)
	net.MustAddInstance(1, 2, 10, 10)
	net.MustAddInstance(1, 3, 10, 10)
	net.MustAddInstance(2, net.Catalog.Merger(), 5, 10)
	net.MustAddInstance(3, 4, 10, 10)
	return &Problem{
		Net: net,
		SFC: sfc.DAGSFC{Layers: []sfc.Layer{
			{VNFs: []network.VNFID{1}},
			{VNFs: []network.VNFID{2, 3}},
			{VNFs: []network.VNFID{4}},
		}},
		Src: 0, Dst: 3, Rate: 1, Size: 1,
	}
}

// checkTraceAccounts fails unless a run's spans account for the statistics
// on its root: one search span per search, their tree sizes summing to
// tree_nodes, one layered-run per kernel run, and no candidates span under a
// layer the kernel answered.
func checkTraceAccounts(t *testing.T, root *telemetry.Span) {
	t.Helper()
	fwd, bwd := findSpans(root, "forward-search"), findSpans(root, "backward-search")
	size := 0
	for _, s := range append(fwd, bwd...) {
		size += intAttr(s, "tree_size")
	}
	if len(fwd) != intAttr(root, "forward_searches") || len(bwd) != intAttr(root, "backward_searches") ||
		size != intAttr(root, "tree_nodes") || len(findSpans(root, "layered-run")) != intAttr(root, "layered_runs") {
		t.Fatalf("%d forward, %d backward searches settling %d nodes, %d layered runs; the root says %v/%v/%v/%v",
			len(fwd), len(bwd), size, len(findSpans(root, "layered-run")), root.Attr("forward_searches"),
			root.Attr("backward_searches"), root.Attr("tree_nodes"), root.Attr("layered_runs"))
	}
	for _, layer := range root.Children() {
		for _, run := range findChildren(layer, "layered-run") {
			if run.Attr("fallback") == nil && len(findChildren(layer, "candidates")) != 0 {
				t.Fatalf("%s: the kernel answered it, yet it has a candidates span", layer.Name())
			}
		}
	}
}

// TestTraceOutline pins the span tree of four runs — names and attributes,
// not durations — against testdata/trace_outline.golden (rewrite it with
// go test -run TestTraceOutline -update ./internal/core). The hybrid
// fixture runs layers 1 and 3 through the layered kernel under MBBE (each a
// layered-run holding its one search and its filter) and every layer
// through the per-layer search under BBE; the serial chain is one terminal
// run, directed by the destination tree it grows; the failing run ends in
// layer 1 with the statistics of what it searched on its root.
func TestTraceOutline(t *testing.T) {
	serial := hybridFixture()
	serial.SFC = fromWidths([][]network.VNFID{{1}, {4}})
	failing := hybridFixture()
	failing.Rate = 100 // over every instance capacity
	var golden strings.Builder
	for _, tc := range []struct {
		name string
		p    *Problem
		opts Options
	}{
		{"hybrid-mbbe", hybridFixture(), MBBEOptions()},
		{"hybrid-bbe", hybridFixture(), BBEOptions()},
		{"serial-mbbe", serial, MBBEOptions()},
		{"failing-run", failing, MBBEOptions()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, tr, err := embedTraced(tc.p, tc.opts)
			golden.WriteString("== " + tc.name + "\n" + outline(t, tr))
			root := tr.Root()
			if tc.name == "failing-run" {
				if !errors.Is(err, ErrNoEmbedding) || root.Attr("error") != err.Error() {
					t.Fatalf("err %v, root error %v; want the refusal on the root", err, root.Attr("error"))
				}
				for _, key := range []string{"tree_nodes", "forward_searches", "backward_searches", "extensions",
					"sub_solutions", "layered_runs", "layered_fallbacks", "path_tree_nodes"} {
					if root.Attr(key) == nil {
						t.Fatalf("the failed run's root has no %s", key)
					}
				}
				if intAttr(root, "forward_searches") == 0 {
					t.Fatal("vacuous: the failed run searched nothing")
				}
			} else if err != nil {
				t.Fatal(err)
			} else if root.Attr("total_cost") != res.Cost.Total() {
				t.Fatalf("root total_cost %v, result %v", root.Attr("total_cost"), res.Cost.Total())
			}
			checkTraceAccounts(t, root)
		})
	}
	path := filepath.Join("testdata", "trace_outline.golden")
	if *update {
		if err := os.WriteFile(path, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := golden.String(); got != string(want) {
		t.Fatalf("trace outlines changed (rewrite with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestTraceMatchesPaperExample runs BBE on the Fig. 3 reconstruction and
// checks the span tree against the invariants TestPaperFig3ForwardBackwardWalk
// asserts (the layer-2 forward tree covers in 3 iterations discovering
// 1+2+3 nodes) and against the run's result, then the JSON dump and the
// rendering.
func TestTraceMatchesPaperExample(t *testing.T) {
	p := fig3Problem()
	res, tr, err := embedTraced(p, BBEOptions())
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if root.Attr("alg") != "bbe" || root.Attr("total_cost") != res.Cost.Total() || root.Attr("tree_nodes") != res.Stats.TreeNodes {
		t.Fatalf("root alg=%v total_cost=%v tree_nodes=%v, want bbe/%v/%v",
			root.Attr("alg"), root.Attr("total_cost"), root.Attr("tree_nodes"), res.Cost.Total(), res.Stats.TreeNodes)
	}
	checkTraceAccounts(t, root)

	layers := make(map[string]*telemetry.Span)
	for _, c := range root.Children() {
		if strings.HasPrefix(c.Name(), "layer ") {
			layers[c.Name()] = c
		}
	}
	if len(layers) != 2 {
		t.Fatalf("trace has %d layer spans, want 2", len(layers))
	}
	for name, span := range layers {
		cheapest, _ := span.Attr("cheapest").(float64)
		if intAttr(span, "kept") < 1 || cheapest <= 0 || cheapest > res.Cost.Total() || span.Duration() <= 0 {
			t.Fatalf("%s: kept=%v cheapest=%v over %v; want a kept, positive cheapest within the total",
				name, span.Attr("kept"), span.Attr("cheapest"), span.Duration())
		}
	}

	// Layer 2's forward search: the Fig. 3 walk discovers {vA}, {vB,vH},
	// {vC,vE,vL} over three iterations — 6 tree nodes, covering.
	l2 := layers["layer 2"]
	fwd := findChildren(l2, "forward-search")
	if len(fwd) != 1 {
		t.Fatalf("layer 2 has %d forward-search spans, want 1", len(fwd))
	}
	if fwd[0].Attr("tree_size") != 6 || fwd[0].Attr("covered") != true || fwd[0].Attr("start") != int(fig3vA) {
		t.Fatalf("layer 2 forward search from %v: tree_size=%v covered=%v, want from %d, 6/true",
			fwd[0].Attr("start"), fwd[0].Attr("tree_size"), fwd[0].Attr("covered"), fig3vA)
	}
	// Every backward search nests in the build's candidates span.
	cands := findChildren(l2, "candidates")
	if len(cands) != 1 || cands[0].Attr("generated") == nil || cands[0].Attr("kept") == nil {
		t.Fatalf("layer 2 has %d candidates spans, want one with generated/kept", len(cands))
	}
	if n := len(findChildren(cands[0], "backward-search")); n == 0 || n != res.Stats.BackwardSearches {
		t.Fatalf("candidates hold %d backward searches, the run made %d", n, res.Stats.BackwardSearches)
	}
	filters := findChildren(l2, "filter")
	if len(filters) != 1 || intAttr(filters[0], "considered") < intAttr(l2, "kept") {
		t.Fatalf("layer 2 has %d filter spans, want one that considered at least the %v kept", len(filters), l2.Attr("kept"))
	}
	// The closure reports the leaves the run closed to the destination.
	closure := findChildren(root, "closure")
	if len(closure) != 1 || closure[0].Attr("leaves") != res.Stats.ClosureLeaves ||
		closure[0].Attr("tree_nodes") != res.Stats.ClosureTreeNodes || res.Stats.ClosureLeaves == 0 {
		t.Fatalf("closure spans %v, want one with leaves=%d tree_nodes=%d", closure, res.Stats.ClosureLeaves, res.Stats.ClosureTreeNodes)
	}

	// The JSON dump round-trips with the documented schema.
	var b bytes.Buffer
	if err := tr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name     string `json:"name"`
		Children []struct {
			Name  string         `json:"name"`
			Attrs map[string]any `json:"attrs"`
		} `json:"children"`
	}
	if err := json.Unmarshal(b.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Name != "embed" || len(decoded.Children) < 2 {
		t.Fatalf("JSON dump shape: %s", b.String())
	}
	// And the human rendering mentions every phase.
	text := outline(t, tr)
	for _, want := range []string{"embed alg=bbe", "layer 2", "forward-search", "backward-search", "candidates", "filter", "closure"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q:\n%s", want, text)
		}
	}
}

// TestObserverCallbackSequence reads the rows of an MBBE run off its trace:
// the destination tree, then one row per layer in order — the single-VNF
// layer one layered-run holding its search and its filter, the parallel
// layer a forward search, the candidates holding its backward searches, and
// a filter — then the closure.
func TestObserverCallbackSequence(t *testing.T) {
	p := lineFixture()
	res, tr, err := embedTraced(p, MBBEOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := func(s *telemetry.Span) []string {
		var out []string
		for _, c := range s.Children() {
			out = append(out, c.Name())
		}
		return out
	}
	root := tr.Root()
	for _, tc := range []struct {
		span *telemetry.Span
		want []string
	}{
		{root, []string{"destination-tree", "layer 1", "layer 2", "closure"}},
		{root.Children()[1], []string{"layered-run"}},
		{root.Children()[1].Children()[0], []string{"forward-search", "filter"}},
		{root.Children()[2], []string{"forward-search", "candidates", "filter"}},
	} {
		if got := names(tc.span); !reflect.DeepEqual(got, tc.want) {
			t.Fatalf("%s holds %q, want %q", tc.span.Name(), got, tc.want)
		}
	}
	for _, layer := range root.Children()[1:3] {
		cheapest, _ := layer.Attr("cheapest").(float64)
		if intAttr(layer, "parents") < 1 || intAttr(layer, "kept") < 1 || cheapest <= 0 {
			t.Fatalf("%s: parents=%v kept=%v cheapest=%v", layer.Name(), layer.Attr("parents"), layer.Attr("kept"), layer.Attr("cheapest"))
		}
	}
	if len(findSpans(root.Children()[2], "backward-search")) == 0 || root.Attr("total_cost") != res.Cost.Total() {
		t.Fatalf("no backward search, or root total_cost %v != %v", root.Attr("total_cost"), res.Cost.Total())
	}
}

// TestTracedRunMatchesUntraced: recording a trace changes nothing the run
// decides — the same solution, the same cost to the bit, the same Stats, or
// the same refusal — over the TestRewriteGolden configurations.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, cfg := range goldenConfigs() {
		for seed := int64(1); seed <= 3; seed++ {
			p := randomProblem(rand.New(rand.NewSource(seed)), 60, 6, 4)
			plain, plainErr := Embed(p, cfg.opts)
			traced, tr, tracedErr := embedTraced(p, cfg.opts)
			if plainErr != nil || tracedErr != nil {
				if plainErr == nil || tracedErr == nil || plainErr.Error() != tracedErr.Error() {
					t.Fatalf("%s/seed=%d: untraced err %v, traced %v", cfg.name, seed, plainErr, tracedErr)
				}
				continue
			}
			if !reflect.DeepEqual(plain.Solution, traced.Solution) || plain.Stats != traced.Stats ||
				math.Float64bits(plain.Cost.Total()) != math.Float64bits(traced.Cost.Total()) {
				t.Fatalf("%s/seed=%d: traced run differs: %+v at %v, untraced %+v at %v",
					cfg.name, seed, traced.Stats, traced.Cost.Total(), plain.Stats, plain.Cost.Total())
			}
			if len(tr.Root().Children()) == 0 {
				t.Fatalf("%s/seed=%d: the trace is empty", cfg.name, seed)
			}
		}
	}
}

// TestNilObserverZeroAlloc checks every span helper does nothing on a nil
// span, so an untraced Embed pays nothing for tracing on the hot path.
func TestNilObserverZeroAlloc(t *testing.T) {
	spec := LayerSpec{Index: 1, VNFs: []network.VNFID{1, 2}, Merger: true}
	var st Stats
	allocs := testing.AllocsPerRun(200, func() {
		layer := startLayer(nil, spec, 1)
		endSearch(startAt(layer, "forward-search", 7), 300, true)
		endCandidates(startAt(layer, "candidates", 7), 4, 2)
		endFilter(startSpan(layer, "filter"), 4, 1, 0)
		endLayeredRun(startLayeredRun(layer, 1, 2, true, 3), 40, 1500, 1, 1, false)
		endLayer(layer, 2, 1.5)
		endClosure(startSpan(nil, "closure"), 2, 500)
		endSpan(layer)
		traceOutcome(nil, "mbbe", nil, ErrNoEmbedding, &st)
	})
	if allocs != 0 {
		t.Fatalf("span helpers on a nil span allocate %.1f per run, want 0", allocs)
	}
}

func TestNoObserverNoPanic(t *testing.T) {
	p := lineFixture()
	if _, err := EmbedMBBE(p); err != nil {
		t.Fatal(err)
	}
}
