package journal

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"testing"
	"time"
	"unsafe"

	"dagsfc/internal/flowstate"
)

// sameEvent reports whether got is want, with Time compared by Time.Equal.
func sameEvent(got, want Event) bool {
	if !got.Time.Equal(want.Time) {
		return false
	}
	got.Time = want.Time
	return got == want
}

// TestRecordSize pins the ring's cost per event: 64 bytes, so the default
// 4096-event ring is 256 KiB.
func TestRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 64 {
		t.Fatalf("a ring record is %d bytes, want at most 64", size)
	}
}

// TestAppendAllocatesNothing: the shapes every admission journals, with
// constant strings, are appended without an allocation once their names
// are interned.
func TestAppendAllocatesNothing(t *testing.T) {
	now := time.Now()
	shapes := []Event{
		{Type: TypeEnqueue, Flow: 7, Alg: "mbbe"},
		{Time: now, Type: TypeDequeue, Flow: 7, Seconds: 1e-5},
		{Time: now, Type: TypeEmbedDone, Flow: 7, Alg: "mbbe", Seconds: 1e-3, Cost: 812.5, Nodes: 310, Workers: 2},
		{Time: now, Type: Type(flowstate.Commit.String()), Flow: 7, Alg: "mbbe", Cost: 812.5, Seconds: 1e-4, Detail: "protected"},
		{Type: Type(flowstate.Release.String()), Flow: 7, Cost: 812.5},
	}
	j := New(4, nil)
	for _, ev := range shapes {
		if n := testing.AllocsPerRun(100, func() { j.Append(ev) }); n != 0 {
			t.Errorf("Append(%s) allocates %v times, want 0", ev.Type, n)
		}
	}
}

// TestRoundTrip: every event shape the server emits comes back from Since
// and Flow as Append stamped it, also once the ring has wrapped, down to
// its JSON bytes; and the stamp keeps what the caller gave.
func TestRoundTrip(t *testing.T) {
	kinds := []flowstate.Kind{flowstate.Admit, flowstate.Commit, flowstate.Release, flowstate.Expire,
		flowstate.Evict, flowstate.FaultApply, flowstate.FaultRestore, flowstate.Strand, flowstate.Backup,
		flowstate.Failover, flowstate.BackupLoss, flowstate.Revalidate}
	now := time.Now()
	shapes := []Event{
		{Type: TypeEnqueue, Flow: 1, Alg: "mbbe"},
		{Time: now, Type: TypeDequeue, Flow: 1, Seconds: 2.5e-6},
		{Time: now, Type: TypeEmbedDone, Flow: 1, Alg: "mbbe", Attempt: 2, Seconds: 1e-3, Cost: 763.5693355086521, Nodes: 1 << 20, Workers: 8},
		{Time: now, Type: TypeEmbedDone, Flow: 2, Alg: "mbbe", Seconds: 1e-3, Workers: 8, Detail: "backup: unprotectable", Err: "no embedding"},
		{Type: TypeCommitConflict, Flow: 1, Attempt: 1, Detail: "re-protect", Err: "edge 3→4 has 0.5 left, needs 1"},
		{Type: TypeRejected, Flow: 2, Alg: "minv", Attempt: 3, Err: "queue full"},
		{Type: TypeRepairAttempt, Flow: 3, Alg: "custom", Attempt: 1, Detail: "node-down 3"},
		{Type: TypeBreaker, Detail: "half_open"},
		// Times with no monotonic reading.
		{Time: now.Add(-time.Hour).Round(0), Type: TypeEnqueue, Flow: 4, Alg: "custom"},
		{Time: time.Unix(1_700_000_000, 123456789), Type: TypeDequeue, Flow: 4},
	}
	for i, k := range kinds {
		shapes = append(shapes, Event{Time: now, Type: Type(k.String()), Flow: int64(i + 5), Alg: "mbbe",
			Attempt: i, Seconds: float64(i) / 7, Cost: float64(i) * 1.5, Detail: fmt.Sprintf("link %d-%d down", i, i+1)})
	}
	j := New(len(shapes)-3, nil)
	for round := 0; round < 2; round++ {
		stamped := make([]Event, len(shapes))
		for i, ev := range shapes {
			stamped[i] = j.Append(ev)
			want := ev
			want.Seq = uint64(round*len(shapes) + i)
			if ev.Time.IsZero() {
				want.Time = stamped[i].Time
			}
			if !sameEvent(stamped[i], want) {
				t.Fatalf("round %d: Append(%+v) stamped %+v", round, ev, stamped[i])
			}
		}
		retained := stamped[3:]
		got, _, _ := j.Since(0, 0)
		if len(got) != len(retained) {
			t.Fatalf("round %d: Since returned %d events, want %d", round, len(got), len(retained))
		}
		bySeq := map[uint64]Event{}
		for _, ev := range retained {
			for _, fev := range j.Flow(ev.Flow, 0) {
				bySeq[fev.Seq] = fev
			}
		}
		for i, want := range retained {
			for _, g := range []Event{got[i], bySeq[want.Seq]} {
				a, _ := json.Marshal(g)
				b, _ := json.Marshal(want)
				if !sameEvent(g, want) || string(a) != string(b) {
					t.Errorf("round %d: read back\n %s\nstamped\n %s", round, a, b)
				}
			}
		}
	}
}

// TestNamesSpill: once the intern table is full, a new type or algorithm
// name is spilled into the record's text and still reads back, beside its
// Detail and Err; the seeded names keep their codes and levels.
func TestNamesSpill(t *testing.T) {
	const n = 300
	j := New(n, nil)
	var stamped []Event
	for i := 0; i < n; i++ {
		stamped = append(stamped, j.Append(Event{
			Type: Type(fmt.Sprintf("type-%d", i)), Alg: fmt.Sprintf("alg-%d", i%200), Flow: int64(i),
			Detail: fmt.Sprintf("detail %d", i), Err: fmt.Sprint(i)[:i%2],
		}))
	}
	if len(j.names) != spilled {
		t.Fatalf("intern table holds %d names, want %d", len(j.names), spilled)
	}
	got, _, _ := j.Since(0, 0)
	for i, want := range stamped {
		if !sameEvent(got[i], want) || want.Type != Type(fmt.Sprintf("type-%d", i)) || want.Alg != fmt.Sprintf("alg-%d", i%200) {
			t.Fatalf("event %d: read back %+v, stamped %+v", i, got[i], want)
		}
	}
	if c := j.code(string(TypeRejected)); c != codeRejected || level(c) != slog.LevelWarn {
		t.Fatalf("rejected has code %d", c)
	}
}

// TestNarrowFieldsSaturate: Attempt and Nodes are int32 and Workers uint16
// in the ring; a value past that saturates instead of wrapping.
func TestNarrowFieldsSaturate(t *testing.T) {
	j := New(2, nil)
	ev := j.Append(Event{Type: TypeEmbedDone, Attempt: -1 << 40, Nodes: 1 << 40, Workers: 1 << 20})
	if ev.Attempt != math.MinInt32 || ev.Nodes != math.MaxInt32 || ev.Workers != math.MaxUint16 {
		t.Fatalf("stamped attempt %d, nodes %d, workers %d", ev.Attempt, ev.Nodes, ev.Workers)
	}
	if ev = j.Append(Event{Type: TypeEmbedDone, Workers: -3}); ev.Workers != 0 {
		t.Fatalf("stamped workers %d, want 0", ev.Workers)
	}
}

// FuzzJournal drives a ring of capacity 1–8 through appends and reads and
// checks every read against a plain slice of everything appended: Since's
// events, next cursor and missed count, Flow, Len and Events. Names come
// from a small set or from the input's bytes; a flag byte fills the intern
// table first, so arbitrary names spill.
func FuzzJournal(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 3, 4, 5, 6, 2, 0, 3, 3, 1, 2})
	f.Add([]byte{0x80, 1, 6, 7, 'a', 'b', 'c', 1, 7, 7, 2, 1, 9, 9, 9, 2, 0, 0, 3, 2, 0})
	f.Add([]byte{7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 2})
	// A ring of 8, four bare appends to flow 0, then Since and Flow with
	// limits 1 and 2.
	f.Add(append(append([]byte{7}, make([]byte, 4*12)...), 2, 0, 2, 3, 0, 3, 2, 1, 3))
	names := []string{"", "enqueue", "commit", "strand", "revalidate", "mbbe", "custom"}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		text := func() string {
			k := min(next()%6, len(data))
			s := string(data[:k])
			data = data[k:]
			return s
		}
		name := func() string {
			if i := next(); i%8 < len(names) {
				return names[i%8]
			}
			return text()
		}
		flags := next()
		capacity := flags%8 + 1
		j := New(capacity, nil)
		if flags&0x80 != 0 {
			for len(j.names) < spilled-1 {
				j.names = append(j.names, fmt.Sprint("fill ", len(j.names)))
			}
		}
		base := time.Now().Round(0)
		var model []Event
		for len(data) > 0 {
			switch next() % 4 {
			case 0, 1:
				ev := Event{Type: Type(name()), Alg: name(), Flow: int64(next() % 4), Attempt: next(),
					Nodes: next() << 8, Workers: next(), Seconds: float64(next()) / 3, Cost: float64(next()) * 1.25,
					Detail: text(), Err: text()}
				if at := next(); at%2 == 1 {
					ev.Time = base.Add(time.Duration(at) * time.Microsecond)
				}
				stamped := j.Append(ev)
				if ev.Time.IsZero() {
					ev.Time = stamped.Time
				}
				ev.Seq = uint64(len(model))
				if !sameEvent(stamped, ev) {
					t.Fatalf("Append(%+v) stamped %+v", ev, stamped)
				}
				model = append(model, ev)
			case 2:
				cursor, limit := uint64(next()%(len(model)+3)), next()%5-1
				start := max(len(model)-capacity, 0)
				from, missed := int(cursor), uint64(0)
				if from < start {
					from, missed = start, uint64(start-from)
				}
				from = min(from, len(model))
				want := model[from:]
				if limit > 0 && len(want) > limit {
					want = want[:limit]
				}
				got, nxt, gotMissed := j.Since(cursor, limit)
				if nxt != uint64(from+len(want)) || gotMissed != missed || !sameEvents(got, want) {
					t.Fatalf("Since(%d, %d) = %+v, %d, %d; want %+v, %d, %d", cursor, limit, got, nxt, gotMissed,
						want, from+len(want), missed)
				}
			case 3:
				id, limit := int64(next()%4), next()%4-1
				var want []Event
				for _, ev := range model[max(len(model)-capacity, 0):] {
					if ev.Flow == id {
						want = append(want, ev)
					}
				}
				if limit > 0 && len(want) > limit {
					want = want[len(want)-limit:]
				}
				if got := j.Flow(id, limit); !sameEvents(got, want) {
					t.Fatalf("Flow(%d, %d) = %+v, want %+v", id, limit, got, want)
				}
			}
			if j.Len() != min(len(model), capacity) || j.Events() != uint64(len(model)) {
				t.Fatalf("Len %d, Events %d after %d appends to a ring of %d", j.Len(), j.Events(), len(model), capacity)
			}
		}
	})
}

// sameEvents reports whether got and want hold the same events, in order.
func sameEvents(got, want []Event) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if !sameEvent(got[i], want[i]) {
			return false
		}
	}
	return true
}
