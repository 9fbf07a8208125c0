package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's exported API, recorded by the
// benchmark around the call (the program itself is not instrumented).
// Spans of one admission attempt share Req; Parent is the span that
// caused this one, 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how measured rounds run: the calls below cost one
// nil check there.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// samples and counts hold what the traced pass measures beside the
	// spans: probe timings and per-call allocation deltas by metric name,
	// and event tallies.
	samples map[string][]float64
	counts  map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), samples: map[string][]float64{}, counts: map[string]float64{}}
}

func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tracer) count(name string, n float64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(req, parent int, name string) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the durations, in milliseconds, of every span with
// the given name.
func (t *tracer) durations(name string) []float64 { return spanMs(t.spans, name) }

// spanMs returns the durations, in ms, of the named spans of a slice.
func spanMs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeJSON dumps the spans for offline inspection.
func (t *tracer) writeJSON(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfTimes reduces spans to self time: a span's duration minus the part
// of its interval covered by its children (overlapping children are
// counted once; a child is clipped to its parent). The result is indexed
// like spans.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// waterfallRow aggregates every span of one name.
type waterfallRow struct {
	Name  string
	Count int
	Total int64 // ns, span durations
	Self  int64 // ns, self times
}

func (r waterfallRow) layer() string {
	if i := strings.IndexByte(r.Name, '.'); i >= 0 {
		return r.Name[:i]
	}
	return r.Name
}

// waterfall groups spans by name, ordered by first appearance, which for
// a request is outside-in.
func waterfall(spans []span) []waterfallRow {
	self := selfTimes(spans)
	idx := map[string]int{}
	var rows []waterfallRow
	for i, s := range spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(rows)
			idx[s.Name] = k
			rows = append(rows, waterfallRow{Name: s.Name})
		}
		rows[k].Count++
		rows[k].Total += s.End - s.Start
		rows[k].Self += self[i]
	}
	return rows
}

// printWaterfall renders the rows with per-op figures (ops admission
// attempts were replayed) and each layer's share of all self time.
func printWaterfall(w io.Writer, title string, rows []waterfallRow, ops int) {
	var all int64
	byLayer := map[string]int64{}
	var layers []string
	for _, r := range rows {
		all += r.Self
		if _, ok := byLayer[r.layer()]; !ok {
			layers = append(layers, r.layer())
		}
		byLayer[r.layer()] += r.Self
	}
	fmt.Fprintf(w, "waterfall %s (%d ops)\n", title, ops)
	fmt.Fprintf(w, "  %-24s %8s %12s %12s %7s\n", "span", "count", "total_us/op", "self_us/op", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-24s %8d %12.1f %12.1f %6.1f%%\n", r.Name, r.Count,
			float64(r.Total)/1e3/float64(ops), float64(r.Self)/1e3/float64(ops), pct(r.Self, all))
	}
	for _, l := range layers {
		fmt.Fprintf(w, "  layer %-18s %8s %12s %12.1f %6.1f%%\n", l, "", "",
			float64(byLayer[l])/1e3/float64(ops), pct(byLayer[l], all))
	}
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}
