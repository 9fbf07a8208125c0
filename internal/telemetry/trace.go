package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// timeNow is swapped out by tests to make span durations deterministic.
var timeNow = time.Now

// Attr is one span attribute; values are strings, bools, ints or floats.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed phase of a trace: a name, a duration, ordered
// attributes, and child spans. Spans are built by one goroutine — the
// trace API is intentionally not concurrency-safe, matching an embed, which
// runs on its caller's goroutine and writes its trace there.
type Span struct {
	name     string
	start    time.Time
	end      time.Time // zero while the span is open
	attrs    []Attr
	children []*Span
}

// Name reports the span's name.
func (s *Span) Name() string { return s.name }

// Duration reports the span's length (time so far for an open span).
func (s *Span) Duration() time.Duration {
	if s.end.IsZero() {
		return timeNow().Sub(s.start)
	}
	return s.end.Sub(s.start)
}

// Children returns the child spans in creation order.
func (s *Span) Children() []*Span { return s.children }

// Attr returns the value of the named attribute, or nil.
func (s *Span) Attr(key string) any {
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// SetAttr sets (or overwrites) one attribute.
func (s *Span) SetAttr(key string, value any) {
	for i, a := range s.attrs {
		if a.Key == key {
			s.attrs[i].Value = value
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// StartChild opens a child span.
func (s *Span) StartChild(name string) *Span {
	child := &Span{name: name, start: timeNow()}
	s.children = append(s.children, child)
	return child
}

// End closes the span; closing an already-closed span is a no-op.
func (s *Span) End() {
	if s.end.IsZero() {
		s.end = timeNow()
	}
}

// endTree closes the span and every still-open descendant.
func (s *Span) endTree() {
	for _, c := range s.children {
		c.endTree()
	}
	s.End()
}

// Trace is one recorded run: a root span and its tree.
type Trace struct{ root *Span }

// NewTrace starts a trace whose root span is open.
func NewTrace(rootName string) *Trace {
	return &Trace{root: &Span{name: rootName, start: timeNow()}}
}

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// Finish closes the root span and any descendants still open.
func (t *Trace) Finish() { t.root.endTree() }

// spanJSON is the trace's wire schema: offsets and durations in
// microseconds relative to the root span's start.
type spanJSON struct {
	Name       string         `json:"name"`
	StartUs    int64          `json:"start_us"`
	DurationUs int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []spanJSON     `json:"children,omitempty"`
}

// toJSON rounds the span's start and end down to whole microseconds, so a
// child's interval stays inside its parent's.
func (s *Span) toJSON(epoch time.Time) spanJSON {
	start := s.start.Sub(epoch).Microseconds()
	js := spanJSON{
		Name:       s.name,
		StartUs:    start,
		DurationUs: (s.start.Sub(epoch) + s.Duration()).Microseconds() - start,
	}
	if len(s.attrs) > 0 {
		js.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			js.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		js.Children = append(js.Children, c.toJSON(epoch))
	}
	return js
}

// WriteJSON dumps the span tree as indented JSON (the -trace-out format):
// {"name", "start_us", "duration_us", "attrs", "children"} per span, with
// times in microseconds relative to the root span's start.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.root.toJSON(t.root.start))
}

// Render writes a human-readable tree (the -explain format): one line per
// span with its duration and attributes, indented by depth.
func (t *Trace) Render(w io.Writer) error {
	return renderSpan(w, t.root, 0)
}

func renderSpan(w io.Writer, s *Span, depth int) error {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	if depth > 0 {
		b.WriteString("- ")
	}
	b.WriteString(s.name)
	for _, a := range s.attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, formatAttr(a.Value))
	}
	fmt.Fprintf(&b, " (%s)", s.Duration().Round(time.Microsecond))
	if _, err := fmt.Fprintln(w, b.String()); err != nil {
		return err
	}
	for _, c := range s.children {
		if err := renderSpan(w, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func formatAttr(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.3f", x)
	case string:
		return x
	default:
		return fmt.Sprint(v)
	}
}
