package journal

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"dagsfc/internal/telemetry"
)

func TestAppendStampsAndRetains(t *testing.T) {
	j := New(8, nil)
	for i := 0; i < 5; i++ {
		ev := j.Append(Event{Type: TypeEnqueue, Flow: int64(i + 1)})
		if ev.Seq != uint64(i) {
			t.Fatalf("append %d got seq %d", i, ev.Seq)
		}
		if ev.Time.IsZero() {
			t.Fatalf("append %d: time not stamped", i)
		}
	}
	if j.Len() != 5 || j.Cap() != 8 || j.Events() != 5 || j.start-j.base != 0 {
		t.Fatalf("len=%d cap=%d events=%d dropped=%d", j.Len(), j.Cap(), j.Events(), j.start-j.base)
	}
}

// TestOverflowIsCounted forces ring overflow and checks both the
// journal's own accounting and the mirrored telemetry counters — drops
// must never be silent.
func TestOverflowIsCounted(t *testing.T) {
	eventsBefore := counterValue(t, telemetry.MetricJournalEvents)
	droppedBefore := counterValue(t, telemetry.MetricJournalDropped)

	j := New(4, nil)
	for i := 0; i < 10; i++ {
		j.Append(Event{Type: TypeEnqueue, Flow: int64(i)})
	}
	if j.Len() != 4 {
		t.Fatalf("Len = %d, want 4 (ring capacity)", j.Len())
	}
	if j.Events() != 10 {
		t.Fatalf("Events = %d, want 10", j.Events())
	}
	if j.start-j.base != 6 {
		t.Fatalf("dropped = %d, want 6", j.start-j.base)
	}
	// The retained window is the newest 4 events.
	events, next, missed := j.Since(0, 0)
	if missed != 6 {
		t.Fatalf("Since(0) missed = %d, want 6", missed)
	}
	if len(events) != 4 || events[0].Flow != 6 || events[3].Flow != 9 {
		t.Fatalf("retained window = %+v", events)
	}
	if next != 10 {
		t.Fatalf("next cursor = %d, want 10", next)
	}

	if got := counterValue(t, telemetry.MetricJournalEvents) - eventsBefore; got != 10 {
		t.Fatalf("%s grew by %v, want 10", telemetry.MetricJournalEvents, got)
	}
	if got := counterValue(t, telemetry.MetricJournalDropped) - droppedBefore; got != 6 {
		t.Fatalf("%s grew by %v, want 6", telemetry.MetricJournalDropped, got)
	}
}

// TestResumeStartsAtBase: a resumed journal numbers its events from the
// base, and the seqs below it — another process's — are neither missed nor
// dropped; only what its own ring overwrote is.
func TestResumeStartsAtBase(t *testing.T) {
	const base = 3 << 32
	j := New(4, nil)
	j.Resume(base)
	if ev := j.Append(Event{Type: TypeEnqueue}); ev.Seq != base {
		t.Fatalf("first seq after Resume = %d, want %d", ev.Seq, uint64(base))
	}
	j.Resume(7 << 32) // too late: something was appended
	if _, next, missed := j.Since(0, 0); next != base+1 || missed != 0 || j.start-j.base != 0 {
		t.Fatalf("Since(0) next %d missed %d, dropped %d; want %d, 0, 0", next, missed, j.start-j.base, uint64(base+1))
	}
	for i := 0; i < 5; i++ {
		j.Append(Event{Type: TypeEnqueue})
	}
	if _, _, missed := j.Since(0, 0); missed != 2 || j.start-j.base != 2 {
		t.Fatalf("after overflow: missed %d, dropped %d; want 2 and 2", missed, j.start-j.base)
	}
}

func TestSincePagesAndResumes(t *testing.T) {
	j := New(16, nil)
	for i := 0; i < 10; i++ {
		j.Append(Event{Type: TypeEnqueue, Flow: int64(i)})
	}
	var got []Event
	cursor := uint64(0)
	for {
		page, next, missed := j.Since(cursor, 3)
		if missed != 0 {
			t.Fatalf("missed = %d with nothing overwritten", missed)
		}
		got = append(got, page...)
		if len(page) == 0 {
			break
		}
		cursor = next
	}
	if len(got) != 10 {
		t.Fatalf("paged %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			t.Fatalf("page order broken at %d: seq %d", i, ev.Seq)
		}
	}
	// A cursor past the end returns nothing and stays put.
	page, next, _ := j.Since(99, 0)
	if len(page) != 0 || next != 10 {
		t.Fatalf("past-end Since = %d events, next %d", len(page), next)
	}
}

func TestFlowFiltersAndLimits(t *testing.T) {
	j := New(32, nil)
	for i := 0; i < 6; i++ {
		j.Append(Event{Type: TypeEnqueue, Flow: 7})
		j.Append(Event{Type: TypeEnqueue, Flow: 8})
	}
	all := j.Flow(7, 0)
	if len(all) != 6 {
		t.Fatalf("Flow(7) = %d events, want 6", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("Flow(7) out of order at %d", i)
		}
	}
	tail := j.Flow(7, 2)
	if len(tail) != 2 || tail[1].Seq != all[5].Seq {
		t.Fatalf("Flow(7, limit 2) = %+v", tail)
	}
	if got := j.Flow(999, 0); len(got) != 0 {
		t.Fatalf("Flow(999) = %d events, want 0", len(got))
	}
}

// TestConcurrentAppendAndRead hammers the ring from writers and readers
// at once; run under -race this is the lock-light safety check.
func TestConcurrentAppendAndRead(t *testing.T) {
	j := New(64, nil)
	const writers, perWriter = 8, 200
	var writeWG, readWG sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writeWG.Add(1)
		go func(w int) {
			defer writeWG.Done()
			for i := 0; i < perWriter; i++ {
				j.Append(Event{Type: TypeEnqueue, Flow: int64(w)})
			}
		}(w)
	}
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		var cursor uint64
		for {
			events, next, _ := j.Since(cursor, 16)
			for i := 1; i < len(events); i++ {
				if events[i].Seq != events[i-1].Seq+1 {
					t.Error("reader observed a gap inside one page")
					return
				}
			}
			cursor = next
			j.Flow(3, 4)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	writeWG.Wait()
	close(stop)
	readWG.Wait()

	if j.Events() != writers*perWriter {
		t.Fatalf("Events = %d, want %d", j.Events(), writers*perWriter)
	}
	if j.start-j.base != writers*perWriter-64 {
		t.Fatalf("dropped = %d, want %d", j.start-j.base, writers*perWriter-64)
	}
}

// TestLogEmission checks that an attached slog.Logger receives one record
// per append, with the seq/flow attributes and the per-type levels.
func TestLogEmission(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex
	logger := slog.New(slog.NewTextHandler(lockedWriter{&mu, &buf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	j := New(8, logger)
	j.Append(Event{Type: TypeEnqueue, Flow: 42})
	j.Append(Event{Type: "evict", Flow: 42, Err: "no path"})
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d log lines, want 2:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "level=DEBUG") || !strings.Contains(lines[0], "flow_id=42") || !strings.Contains(lines[0], "seq=0") {
		t.Fatalf("enqueue record = %q", lines[0])
	}
	if !strings.Contains(lines[1], "level=WARN") || !strings.Contains(lines[1], `error="no path"`) {
		t.Fatalf("evicted record = %q", lines[1])
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// counterValue reads one counter family's value from the default
// registry's snapshot (0 when absent).
func counterValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, fam := range telemetry.Default().Snapshot().Families {
		if fam.Name != name {
			continue
		}
		var total float64
		for _, s := range fam.Series {
			total += s.Value
		}
		return total
	}
	return 0
}
