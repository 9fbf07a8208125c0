package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// BucketCount is one cumulative histogram bucket of a snapshot:
// Count observations were <= UpperBound (math.Inf(1) for the last bucket).
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON encodes the +Inf upper bound of the last bucket as the
// string "+Inf" (Prometheus convention), since JSON has no infinity.
func (b BucketCount) MarshalJSON() ([]byte, error) {
	le := any(b.UpperBound)
	if math.IsInf(b.UpperBound, 1) {
		le = "+Inf"
	}
	return json.Marshal(struct {
		UpperBound any    `json:"le"`
		Count      uint64 `json:"count"`
	}{le, b.Count})
}

// UnmarshalJSON is MarshalJSON's inverse: "le" is a number, or the string
// "+Inf".
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		UpperBound json.RawMessage `json:"le"`
		Count      uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count, b.UpperBound = raw.Count, math.Inf(1)
	if string(raw.UpperBound) == `"+Inf"` {
		return nil
	}
	return json.Unmarshal(raw.UpperBound, &b.UpperBound)
}

// SeriesSnapshot is the frozen state of one label set of a family.
type SeriesSnapshot struct {
	Labels []Label `json:"labels,omitempty"`
	// Value carries counter and gauge readings.
	Value float64 `json:"value,omitempty"`
	// Buckets, Sum and Count carry histogram readings (cumulative buckets,
	// Prometheus-style).
	Buckets []BucketCount `json:"buckets,omitempty"`
	Sum     float64       `json:"sum,omitempty"`
	Count   uint64        `json:"count,omitempty"`
}

// FamilySnapshot is the frozen state of one metric family.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Kind   Kind             `json:"kind"`
	Series []SeriesSnapshot `json:"series"`
}

// Snapshot is a point-in-time copy of a registry, ordered
// deterministically (families by name, series by label set).
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// Series looks one series up: the first of family name whose label set
// includes every given label (none given: the family's first series, which
// for a label-free counter or gauge is the only one). ok is false when the
// family is absent or has no such series.
func (s Snapshot) Series(name string, labels ...Label) (series SeriesSnapshot, ok bool) {
	for _, fam := range s.Families {
		if fam.Name != name {
			continue
		}
		for _, ss := range fam.Series {
			lacksOne := slices.ContainsFunc(labels, func(l Label) bool { return !slices.Contains(ss.Labels, l) })
			if !lacksOne {
				return ss, true
			}
		}
	}
	return SeriesSnapshot{}, false
}

// Snapshot freezes the registry's current state. Concurrent writers keep
// running; per-series values are read atomically (a histogram's buckets,
// sum and count may be mutually off by in-flight observations).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := Snapshot{}
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fam := r.families[name]
		fs := FamilySnapshot{Name: fam.name, Help: fam.help, Kind: fam.kind}
		keys := make([]string, 0, len(fam.series))
		for key := range fam.series {
			keys = append(keys, key)
		}
		sort.Strings(keys)
		for _, key := range keys {
			ss := SeriesSnapshot{Labels: fam.labels[key]}
			switch m := fam.series[key].(type) {
			case *Counter:
				ss.Value = m.Value()
			case *Gauge:
				ss.Value = m.Value()
			case *Histogram:
				var cum uint64
				for i, ub := range m.upper {
					cum += m.counts[i].Load()
					ss.Buckets = append(ss.Buckets, BucketCount{UpperBound: ub, Count: cum})
				}
				cum += m.counts[len(m.upper)].Load()
				ss.Buckets = append(ss.Buckets, BucketCount{UpperBound: inf, Count: cum})
				ss.Sum = m.Sum()
				ss.Count = m.Count()
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

var inf = math.Inf(1)

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, fam := range s.Families {
		if fam.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", fam.Name, fam.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam.Name, fam.Kind); err != nil {
			return err
		}
		for _, ss := range fam.Series {
			if fam.Kind == KindHistogram {
				for _, b := range ss.Buckets {
					le := "+Inf"
					if b.UpperBound != inf {
						le = formatFloat(b.UpperBound)
					}
					labels := promLabels(append(append([]Label(nil), ss.Labels...), L("le", le)))
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", fam.Name, labels, b.Count); err != nil {
						return err
					}
				}
				labels := promLabels(ss.Labels)
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", fam.Name, labels, formatFloat(ss.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", fam.Name, labels, ss.Count); err != nil {
					return err
				}
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", fam.Name, promLabels(ss.Labels), formatFloat(ss.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	out := "{"
	for i, l := range labels {
		if i > 0 {
			out += ","
		}
		out += l.Key + "=" + strconv.Quote(l.Value)
	}
	return out + "}"
}

// Content types the metrics handler emits: the Prometheus text
// exposition format with its explicit version parameter, and JSON for
// programmatic consumers.
const (
	ContentTypePrometheus = "text/plain; version=0.0.4; charset=utf-8"
	ContentTypeJSON       = "application/json; charset=utf-8"
)

// Handler serves the registry — mount it at /metrics. The default output
// is Prometheus text exposition (version 0.0.4, explicit in the
// Content-Type); a ?format=json query parameter or an Accept header
// naming application/json switches to the JSON snapshot.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		snap := r.Snapshot()
		if wantsJSON(req) {
			w.Header().Set("Content-Type", ContentTypeJSON)
			_ = snap.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", ContentTypePrometheus)
		_ = snap.WritePrometheus(w)
	})
}

// wantsJSON implements the /metrics content negotiation: the explicit
// ?format=json wins, otherwise any Accept member whose media type is
// application/json (parameters like ;q= ignored) selects JSON.
func wantsJSON(req *http.Request) bool {
	switch req.URL.Query().Get("format") {
	case "json":
		return true
	case "prometheus", "text":
		return false
	}
	for _, part := range strings.Split(req.Header.Get("Accept"), ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.EqualFold(strings.TrimSpace(mt), "application/json") {
			return true
		}
	}
	return false
}
