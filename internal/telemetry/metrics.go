// Package telemetry is the observability spine of the repository: a
// dependency-free (standard library only) metrics core — atomic counters,
// gauges and fixed-bucket histograms behind a concurrent Registry with a
// snapshot API and Prometheus-text/JSON exposition — plus a structured
// trace recorder that captures one embedding run as a tree of timed spans
// (see trace.go). Every embedding algorithm under comparison records into
// the shared Default registry under identical metric names (see instr.go),
// so BBE, MBBE and the baselines can be compared from live counters instead
// of bespoke experiment code.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, e.g. {Key: "alg", Value: "mbbe"}.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric families a Registry holds.
type Kind string

// The supported metric kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// atomicFloat is a float64 updated with compare-and-swap on its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) Load() float64   { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing value. Safe for concurrent use.
type Counter struct{ v atomicFloat }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter; negative deltas panic (counters are
// monotone — use a Gauge for values that go down).
func (c *Counter) Add(v float64) {
	if v < 0 {
		panic("telemetry: counter decreased")
	}
	c.v.Add(v)
}

// Value reads the current count.
func (c *Counter) Value() float64 { return c.v.Load() }

// Gauge is a value that can go up and down. Safe for concurrent use.
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) { g.v.Store(v) }

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) { g.v.Add(v) }

// Value reads the current value.
func (g *Gauge) Value() float64 { return g.v.Load() }

// Histogram counts observations into fixed buckets (upper bounds,
// +Inf implicit) and tracks their sum. Safe for concurrent use.
type Histogram struct {
	upper  []float64 // sorted upper bounds; the +Inf bucket is counts[len(upper)]
	counts []atomic.Uint64
	sum    atomicFloat
	count  atomic.Uint64
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.upper, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Load() }

// ExpBuckets returns n exponentially spaced upper bounds starting at
// start and multiplying by factor, for Registry.Histogram.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("telemetry: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start
		start *= factor
	}
	return bs
}

var defLatencyBuckets = ExpBuckets(1e-5, 2, 20)

// DefLatencyBuckets spans 10µs to ~5s in powers of two, wide enough for
// every embedding algorithm in the repo (MINV in microseconds, BBE on
// large instances in seconds). Every call returns the same slice, which
// must not be modified; the registry copies what it keeps.
func DefLatencyBuckets() []float64 { return defLatencyBuckets }

// family is one named metric with its per-label-set series.
type family struct {
	name, help string
	kind       Kind
	buckets    []float64
	series     map[string]any // canonical label string -> *Counter/*Gauge/*Histogram
	labels     map[string][]Label
}

// Registry holds named metric families. All methods are safe for
// concurrent use; the getters are idempotent — the same (name, labels)
// always returns the same metric instance. Registering the same name with
// a different kind (or a histogram with different buckets) panics: metric
// identity is a programming contract, not runtime input.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{families: make(map[string]*family)} }

// defaultRegistry is the process-wide registry the instrumentation
// helpers (instr.go) and the debug listener use.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// Counter returns (registering on first use) the counter name{labels...}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.metric(name, help, KindCounter, nil, labels).(*Counter)
}

// Gauge returns (registering on first use) the gauge name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.metric(name, help, KindGauge, nil, labels).(*Gauge)
}

// Histogram returns (registering on first use) the histogram
// name{labels...} with the given bucket upper bounds (+Inf implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	return r.metric(name, help, KindHistogram, buckets, labels).(*Histogram)
}

func (r *Registry) metric(name, help string, kind Kind, buckets []float64, labels []Label) any {
	key := canonicalLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	fam, ok := r.families[name]
	if !ok {
		bs := append([]float64(nil), buckets...)
		sort.Float64s(bs)
		fam = &family{
			name: name, help: help, kind: kind, buckets: bs,
			series: make(map[string]any), labels: make(map[string][]Label),
		}
		r.families[name] = fam
	}
	if fam.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, fam.kind, kind))
	}
	if kind == KindHistogram && !equalBuckets(fam.buckets, buckets) {
		panic(fmt.Sprintf("telemetry: histogram %q re-registered with different buckets", name))
	}
	if m, ok := fam.series[key]; ok {
		return m
	}
	var m any
	switch kind {
	case KindCounter:
		m = &Counter{}
	case KindGauge:
		m = &Gauge{}
	case KindHistogram:
		m = &Histogram{upper: fam.buckets, counts: make([]atomic.Uint64, len(fam.buckets)+1)}
	}
	fam.series[key] = m
	fam.labels[key] = sortedLabels(labels)
	return m
}

func equalBuckets(have []float64, want []float64) bool {
	ws := append([]float64(nil), want...)
	sort.Float64s(ws)
	if len(have) != len(ws) {
		return false
	}
	for i := range have {
		if have[i] != ws[i] {
			return false
		}
	}
	return true
}

func sortedLabels(labels []Label) []Label {
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// canonicalLabels renders a deterministic series key: labels sorted by
// key, Prometheus-escaped values.
func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	return b.String()
}
