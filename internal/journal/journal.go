// Package journal is the serving stack's flight recorder: a fixed-size
// ring buffer of typed, monotonically-sequenced lifecycle events recorded
// at every decision point of the control plane — admission, speculative
// embed, commit, expiry, release, fault handling, repair and breaker
// transitions. The ring answers two questions an aggregate counter
// cannot: "what happened to flow N, in order?" and "what has the server
// decided lately?". Appends are lock-light (one short mutex hold, no
// allocation beyond the event copy); readers copy out under the same
// lock, so a reader never observes a half-written event. Overwritten
// events are counted, never silently lost: Dropped() and the
// dagsfc_journal_dropped_total counter account for every event the ring
// evicted, and Since reports how many events a lagging cursor missed.
//
// When a *slog.Logger is attached, every append also emits one structured
// log record carrying the same fields (flow, attempt, type, seconds,
// cost, error) — the log stream and the journal are fed by the same
// hook, so they can never disagree about what the server did.
package journal

import (
	"log/slog"
	"sync"
	"time"

	"dagsfc/internal/telemetry"
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

// Journal is the ring. Safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	buf   []Event // ring storage; seq s lives at buf[s%cap]
	next  uint64  // seq the next append receives
	start uint64  // oldest seq still retained
	base  uint64  // seq of the first append (Resume)

	logger *slog.Logger
}

// New returns a journal retaining the last capacity events (minimum 1).
// logger may be nil to disable structured log emission.
func New(capacity int, logger *slog.Logger) *Journal {
	if capacity < 1 {
		capacity = 1
	}
	return &Journal{buf: make([]Event, capacity), logger: logger}
}

// Append stamps the event (Seq always; Time only if unset) and records
// it, evicting the oldest entry when the ring is full. It returns the
// stamped event.
func (j *Journal) Append(ev Event) Event {
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	j.mu.Lock()
	ev.Seq = j.next
	j.buf[ev.Seq%uint64(len(j.buf))] = ev
	j.next++
	dropped := false
	if j.next-j.start > uint64(len(j.buf)) {
		j.start++
		dropped = true
	}
	j.mu.Unlock()
	telemetry.RecordJournalAppend(dropped)
	if j.logger != nil {
		j.log(ev)
	}
	return ev
}

// log emits the event as one structured record on the attached logger.
// Called outside the ring lock; the seq attribute keeps records and
// journal entries correlated even if concurrent emissions interleave.
func (j *Journal) log(ev Event) {
	attrs := make([]any, 0, 16)
	attrs = append(attrs, "seq", ev.Seq, "type", string(ev.Type))
	if ev.Flow != 0 {
		attrs = append(attrs, "flow_id", ev.Flow)
	}
	if ev.Attempt != 0 {
		attrs = append(attrs, "attempt", ev.Attempt)
	}
	if ev.Alg != "" {
		attrs = append(attrs, "alg", ev.Alg)
	}
	if ev.Seconds != 0 {
		attrs = append(attrs, "seconds", ev.Seconds)
	}
	if ev.Cost != 0 {
		attrs = append(attrs, "cost", ev.Cost)
	}
	if ev.Detail != "" {
		attrs = append(attrs, "detail", ev.Detail)
	}
	if ev.Err != "" {
		attrs = append(attrs, "error", ev.Err)
	}
	j.logger.Log(nil, level(ev.Type), "flow "+string(ev.Type), attrs...)
}

// level maps an event type onto a log level: per-stage chatter is Debug,
// lifecycle milestones are Info, and failures the operator should see —
// among the transitions, a strand and an eviction — are Warn.
func level(t Type) slog.Level {
	switch t {
	case TypeEnqueue, TypeDequeue, TypeRepairAttempt:
		return slog.LevelDebug
	case TypeCommitConflict, TypeRejected, "strand", "evict":
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
	from := cursor
	if from < j.start {
		missed = j.start - max(from, j.base)
		from = j.start
	}
	if from > j.next {
		from = j.next
	}
	n := int(j.next - from)
	if limit > 0 && n > limit {
		n = limit
	}
	events = make([]Event, n)
	for i := 0; i < n; i++ {
		events[i] = j.buf[(from+uint64(i))%uint64(len(j.buf))]
	}
	return events, from + uint64(n), missed
}

// Flow returns the retained events of one flow, oldest first. limit > 0
// keeps only the most recent limit events.
func (j *Journal) Flow(id int64, limit int) []Event {
	j.mu.Lock()
	var out []Event
	for s := j.start; s < j.next; s++ {
		if ev := j.buf[s%uint64(len(j.buf))]; ev.Flow == id {
			out = append(out, ev)
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

// Dropped reports how many events the ring has evicted to make room —
// the overflow accounting the metrics mirror as
// dagsfc_journal_dropped_total.
func (j *Journal) Dropped() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.start - j.base
}
