// Package journal is the serving stack's flight recorder: a fixed-size ring
// of typed, sequenced events from every decision point of the control plane
// (admission, embed, commit, expiry, release, faults, repair, breaker). It
// answers what a counter cannot: "what happened to flow N, in order?" and
// "what has the server decided lately?". The ring holds each event in a
// 64-byte record; an append is one short mutex hold and allocates nothing
// when its strings are constants. Evicted events are counted, never silently
// lost: dagsfc_journal_dropped_total counts them, and Since reports how many
// a lagging cursor missed. An attached *slog.Logger gets one record per
// append from the same hook, so the log and the journal never disagree.
package journal

import (
	"encoding/binary"
	"log/slog"
	"math"
	"slices"
	"strings"
	"sync"
	"time"

	"dagsfc/internal/telemetry"
	"dagsfc/internal/wal"
)

// Type names one event. A state change is named by its transition: the
// server journals every applied flowstate.Transition once, as
// Type(kind.String()), the name its WAL record type has. The constants
// below are the pipeline events no transition covers.
type Type string

const (
	// TypeEnqueue: the request passed admission and waits for an embed slot.
	TypeEnqueue Type = "enqueue"
	// TypeDequeue: the request or restore attempt took an embed slot;
	// Seconds is the wait for it.
	TypeDequeue Type = "dequeue"
	// TypeEmbedDone closes one speculative embed, which began Seconds
	// before Time: it carries the candidate cost and search-node count on
	// success, or the error.
	TypeEmbedDone Type = "embed_done"
	// TypeCommitConflict: the candidate no longer fits the live ledger
	// (stale snapshot).
	TypeCommitConflict Type = "commit_conflict"
	// TypeRejected is a request's terminal failure: admission bounced it
	// (queue full, draining), the pipeline failed it (no embedding,
	// conflict retries exhausted, internal error), it timed out, or the
	// restore controller gave up re-arming a backup ("re-protect").
	TypeRejected Type = "rejected"
	// TypeRepairAttempt: the restore controller issued one attempt.
	TypeRepairAttempt Type = "repair_attempt"
	// TypeBreaker marks an admission-breaker state transition; Detail is
	// the new state ("closed", "half_open", "open").
	TypeBreaker Type = "breaker"
)

// Event is one journal entry, wire-ready: the HTTP events API serves this
// struct verbatim. Seq is strictly monotonic across the journal's life;
// Time carries Go's monotonic clock reading, so durations between a
// flow's events are exact even across wall-clock adjustments.
type Event struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Type    Type      `json:"type"`
	Flow    int64     `json:"flow,omitempty"`
	Attempt int       `json:"attempt,omitempty"`
	Alg     string    `json:"alg,omitempty"`
	// Seconds is the stage duration the event closes: queue wait on
	// dequeue, embed time on embed_done, commit wait on commit, switch
	// time on failover, time from stranding on backup and evict.
	Seconds float64 `json:"seconds,omitempty"`
	Cost    float64 `json:"cost,omitempty"`
	// Nodes is the embed's search-tree node count (embed_done).
	Nodes int `json:"nodes,omitempty"`
	// Workers is the server's embed-slot count (embed_done).
	Workers int `json:"workers,omitempty"`
	// Detail carries event-specific context: the fault on fault-driven
	// transitions, "protected" or "repair" on a commit, the breaker state.
	Detail string `json:"detail,omitempty"`
	Err    string `json:"error,omitempty"`
}

// A name's code is its index in a journal's intern table. Each starts as
// seed, clipped so its first intern copies it: "" (0), the pipeline types,
// then each WAL type's name at walCode plus the type, so a code's log level
// follows a renamed WAL type. Past the last code, both names spill to text.
const (
	codeEnqueue, codeDequeue                                     = 1, 2
	codeCommitConflict, codeRejected, codeRepairAttempt, walCode = 4, 5, 6, 7
	spilled                                                      = math.MaxUint8
)

var seed = func() []string {
	s := []string{"", string(TypeEnqueue), string(TypeDequeue), string(TypeEmbedDone),
		string(TypeCommitConflict), string(TypeRejected), string(TypeRepairAttempt), string(TypeBreaker)}
	for t := wal.TypeAdmit; t <= wal.TypeBackupLoss; t++ {
		s = append(s, t.String())
	}
	return slices.Clip(s)
}()

// record is one event in 64 bytes (TestRecordSize); its seq is its slot.
// Detail and Err share text, split at split, behind any spilled names.
type record struct {
	at             int64 // Time − the journal's epoch, in nanoseconds
	flow           int64
	seconds, cost  float64
	text           string
	split          uint32
	attempt, nodes int32
	workers        uint16
	typ, alg       uint8 // intern-table codes
}

// Journal is the ring. Safe for concurrent use.
type Journal struct {
	mu     sync.Mutex
	buf    []record  // ring storage; seq s lives at buf[s%cap]
	names  []string  // intern table: code c names names[c]
	epoch  time.Time // New's clock reading; a record's time counts from it
	next   uint64    // seq the next append receives
	start  uint64    // oldest seq still retained
	base   uint64    // seq of the first append (Resume)
	logger *slog.Logger
}

// New returns a journal retaining the last capacity events (minimum 1).
// logger may be nil to disable structured log emission.
func New(capacity int, logger *slog.Logger) *Journal {
	return &Journal{buf: make([]record, max(capacity, 1)), names: seed, epoch: time.Now(), logger: logger}
}

// Append stamps the event (Seq always; Time only if unset) and records
// it, evicting the oldest entry when the ring is full. It returns the
// stamped event as the ring holds it: Time on the journal's clock, equal
// under Time.Equal to the one given within 292 years of New; Attempt and
// Nodes saturated as int32, Workers as uint16.
func (j *Journal) Append(ev Event) Event {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	text, split := ev.Detail+ev.Err, len(ev.Detail)
	j.mu.Lock()
	typ, alg := j.code(string(ev.Type)), j.code(ev.Alg)
	if typ == spilled || alg == spilled {
		b := spill(spill(nil, string(ev.Type)), ev.Alg)
		typ, text, split = spilled, string(append(b, text...)), split+len(b)
	}
	r := &j.buf[j.next%uint64(len(j.buf))]
	*r = record{at: int64(ev.Time.Sub(j.epoch)), flow: ev.Flow, seconds: ev.Seconds, cost: ev.Cost,
		text: text, split: uint32(split), typ: typ, alg: alg,
		attempt: int32(min(max(ev.Attempt, math.MinInt32), math.MaxInt32)),
		nodes:   int32(min(max(ev.Nodes, math.MinInt32), math.MaxInt32)),
		workers: uint16(min(max(ev.Workers, 0), math.MaxUint16))}
	ev = j.event(r, j.next)
	j.next++
	dropped := j.next-j.start > uint64(len(j.buf))
	if dropped {
		j.start++
	}
	j.mu.Unlock()
	telemetry.RecordJournalAppend(dropped)
	if j.logger != nil {
		j.log(ev, typ)
	}
	return ev
}

// event rebuilds the event r holds at seq. Called under j.mu.
func (j *Journal) event(r *record, seq uint64) Event {
	ev := Event{Seq: seq, Time: j.epoch.Add(time.Duration(r.at)), Flow: r.flow, Attempt: int(r.attempt),
		Seconds: r.seconds, Cost: r.cost, Nodes: int(r.nodes), Workers: int(r.workers),
		Detail: r.text[:r.split], Err: r.text[r.split:]}
	if r.typ == spilled { // the calls run left to right: type, then algorithm
		ev.Type, ev.Alg = Type(unspill(&ev.Detail)), unspill(&ev.Detail)
	} else {
		ev.Type, ev.Alg = Type(j.names[r.typ]), j.names[r.alg]
	}
	return ev
}

// code returns name's code, interning it while the table has room, or
// spilled. Called under j.mu.
func (j *Journal) code(name string) uint8 {
	c := slices.Index(j.names, name)
	if c < 0 && len(j.names) == spilled {
		return spilled
	} else if c < 0 {
		c, j.names = len(j.names), append(j.names, strings.Clone(name))
	}
	return uint8(c)
}

// spill appends name to b behind its length; unspill cuts it back off.
func spill(b []byte, name string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(name))), name...)
}

func unspill(s *string) (name string) {
	n, w := binary.Uvarint([]byte((*s)[:min(len(*s), binary.MaxVarintLen64)]))
	name, *s = (*s)[w:w+int(n)], (*s)[w+int(n):]
	return name
}

// log emits the event as one structured record on the attached logger.
// Called outside the ring lock; the seq attribute keeps records and
// journal entries correlated even if concurrent emissions interleave.
func (j *Journal) log(ev Event, typ uint8) {
	attrs := append(make([]any, 0, 18), "seq", ev.Seq, "type", string(ev.Type))
	for _, a := range [...]struct {
		key string
		val any
		set bool
	}{{"flow_id", ev.Flow, ev.Flow != 0}, {"attempt", ev.Attempt, ev.Attempt != 0}, {"alg", ev.Alg, ev.Alg != ""},
		{"seconds", ev.Seconds, ev.Seconds != 0}, {"cost", ev.Cost, ev.Cost != 0},
		{"detail", ev.Detail, ev.Detail != ""}, {"error", ev.Err, ev.Err != ""}} {
		if a.set {
			attrs = append(attrs, a.key, a.val)
		}
	}
	j.logger.Log(nil, level(typ), "flow "+string(ev.Type), attrs...)
}

// level maps a type code onto a log level: Debug for per-stage chatter, Warn
// for failures the operator should see (a strand, an eviction), else Info.
func level(typ uint8) slog.Level {
	switch typ {
	case codeEnqueue, codeDequeue, codeRepairAttempt:
		return slog.LevelDebug
	case codeCommitConflict, codeRejected, walCode + uint8(wal.TypeStrand), walCode + uint8(wal.TypeEvict):
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// Since returns up to limit events with Seq >= cursor, in order, plus the
// cursor to resume from and how many requested events were already
// overwritten (missed > 0 means the caller paged too slowly for the ring
// size). limit <= 0 means "everything retained".
func (j *Journal) Since(cursor uint64, limit int) (events []Event, next uint64, missed uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < j.start {
		missed = j.start - max(cursor, j.base)
	}
	from := min(max(cursor, j.start), j.next)
	n := int(j.next - from)
	if limit > 0 {
		n = min(n, limit)
	}
	events = make([]Event, 0, n)
	for s := from; s < from+uint64(n); s++ {
		events = append(events, j.event(&j.buf[s%uint64(len(j.buf))], s))
	}
	return events, from + uint64(n), missed
}

// Flow returns the retained events of one flow, oldest first. limit > 0
// keeps only the most recent limit events.
func (j *Journal) Flow(id int64, limit int) []Event {
	j.mu.Lock()
	var out []Event
	for s := j.start; s < j.next; s++ {
		if r := &j.buf[s%uint64(len(j.buf))]; r.flow == id {
			out = append(out, j.event(r, s))
		}
	}
	j.mu.Unlock()
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Len reports how many events the ring currently retains.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int(j.next - j.start)
}

// Cap reports the ring's capacity.
func (j *Journal) Cap() int { return len(j.buf) }

// Events reports the seq the next append receives: the lifetime append
// count, above the base a resumed journal started from.
func (j *Journal) Events() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Resume starts an empty journal's sequence at seq — the durability
// layer's recovery path, which picks a seq above every one the previous
// process issued. Nothing below seq counts as missed or dropped. A no-op
// once anything has been appended.
func (j *Journal) Resume(seq uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.next == j.base {
		j.next, j.start, j.base = seq, seq, seq
	}
}
