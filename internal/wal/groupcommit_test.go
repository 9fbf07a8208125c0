package wal

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// syncRound is one fsync the recording hook saw: how many whole frames the
// segment file held when it began, and whether it has returned yet.
type syncRound struct {
	covers uint64
	done   atomic.Bool
}

// syncRecorder stands in for the disk: it notes what each fsync covers,
// takes a disk-like moment over it — so that concurrent writers pile up
// behind a round the way they do behind a real device even when the test
// directory is a RAM disk — and then really fsyncs. Every record of the
// test frames to frameLen bytes and the log is one segment starting at
// seq 1, so the file's size at the start of an fsync says which sequence
// numbers were already written.
type syncRecorder struct {
	frameLen int64
	delay    time.Duration

	mu     sync.Mutex
	rounds []*syncRound
}

func (r *syncRecorder) fsync(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	round := &syncRound{covers: uint64(st.Size() / r.frameLen)}
	r.mu.Lock()
	r.rounds = append(r.rounds, round)
	r.mu.Unlock()
	time.Sleep(r.delay)
	err = f.Sync()
	round.done.Store(true)
	return err
}

// coveredBy reports whether some finished fsync began after seq's frame
// had been written.
func (r *syncRecorder) coveredBy(seq uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, round := range r.rounds {
		if round.covers >= seq && round.done.Load() {
			return true
		}
	}
	return false
}

func (r *syncRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.rounds)
}

// TestGroupCommitDurabilityContract is the oracle for the leader/follower
// protocol: with N writers enqueueing and waiting concurrently, every
// WaitDurable(seq) returns only after an fsync that began once seq's frame
// was in the file; with more than one writer they share fsyncs; and what
// was acknowledged survives an Abandon.
func TestGroupCommitDurabilityContract(t *testing.T) {
	const perWriter = 40
	payload := make([]byte, 64)
	frameLen := int64(len(appendFrame(nil, Record{Type: TypeCommit, Data: payload})))
	for _, writers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := mustOpen(t, dir, Options{Sync: SyncPerCommit})
			rec := &syncRecorder{frameLen: frameLen, delay: 200 * time.Microsecond}
			l.SetSyncFunc(rec.fsync)

			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWriter; i++ {
						seq, err := l.Enqueue(Record{Type: TypeCommit, Flow: int64(w*perWriter + i), Data: payload})
						if err != nil {
							t.Errorf("writer %d: enqueue: %v", w, err)
							return
						}
						if err := l.WaitDurable(seq); err != nil {
							t.Errorf("writer %d: wait %d: %v", w, seq, err)
							return
						}
						if !rec.coveredBy(seq) {
							t.Errorf("writer %d: WaitDurable(%d) returned with no finished fsync covering it", w, seq)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			appends := writers * perWriter
			fsyncs := rec.count()
			t.Logf("%d writers: %d appends, %d fsyncs", writers, appends, fsyncs)
			if writers > 1 && fsyncs >= appends {
				t.Errorf("%d concurrent writers took %d fsyncs for %d appends: nothing was shared", writers, fsyncs, appends)
			}
			l.Abandon()
			l2, recov := mustOpen(t, dir, Options{})
			defer l2.Close()
			if len(recov.Tail) != appends {
				t.Fatalf("recovered %d records, want all %d acknowledged ones", len(recov.Tail), appends)
			}
		})
	}
}

// TestGroupCommitAcrossRotationAndSnapshot runs the same writers over
// segments a few frames long with a snapshot taken mid-stream: rotation
// and the snapshot need the file to themselves, so both have to wait out
// the leader's in-flight fsync instead of closing the file under it.
func TestGroupCommitAcrossRotationAndSnapshot(t *testing.T) {
	const writers, perWriter = 4, 60
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncPerCommit, SegmentBytes: 512})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append(Record{Type: TypeCommit, Flow: int64(w*perWriter + i), Data: make([]byte, 64)}); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if w == 0 && i == perWriter/2 {
					if err := l.WriteSnapshot([]byte("state")); err != nil {
						t.Errorf("snapshot: %v", err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	last := l.seq
	l.Abandon()
	l2, rec := mustOpen(t, dir, Options{})
	defer l2.Close()
	if last != writers*perWriter || rec.SnapshotSeq+uint64(len(rec.Tail)) != last {
		t.Fatalf("snapshot at %d + %d replayed records, want them to add up to %d appends",
			rec.SnapshotSeq, len(rec.Tail), writers*perWriter)
	}
}

// TestAbandonLosesOnlyUnawaitedRecords: records enqueued but never waited
// on sit in the user-space buffer, so an Abandon drops them — and only
// them; what comes back is a prefix of the log that holds every awaited
// record.
func TestAbandonLosesOnlyUnawaitedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncPerCommit})
	var awaited uint64
	for i := 0; i < 5; i++ {
		seq, err := l.Enqueue(Record{Type: TypeCommit, Flow: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 {
			// Waiting on the third covers the two before it as well.
			if err := l.WaitDurable(seq); err != nil {
				t.Fatal(err)
			}
			awaited = seq
		}
	}
	l.Abandon()
	if err := l.WaitDurable(5); err == nil {
		t.Fatal("WaitDurable on an abandoned, never-synced record returned nil")
	}

	l2, rec := mustOpen(t, dir, Options{Sync: SyncPerCommit})
	defer l2.Close()
	if len(rec.Tail) != int(awaited) {
		t.Fatalf("recovered %d records, want exactly the %d awaited ones", len(rec.Tail), awaited)
	}
	for i, r := range rec.Tail {
		if r.Seq != uint64(i+1) || r.Flow != int64(i) {
			t.Fatalf("recovered record %d is seq %d flow %d: not a prefix", i, r.Seq, r.Flow)
		}
	}
	// The lost sequence numbers are free again; the log continues the prefix.
	if seq, err := l2.Append(Record{Type: TypeCommit, Flow: 99}); err != nil || seq != awaited+1 {
		t.Fatalf("append after recovery: seq %d, err %v; want seq %d", seq, err, awaited+1)
	}
}

// TestSyncFailureSticks: a failed fsync fails every waiter of that round
// and every later call — the log cannot vouch for anything after it.
func TestSyncFailureSticks(t *testing.T) {
	l, _ := mustOpen(t, t.TempDir(), Options{Sync: SyncPerCommit})
	defer l.Abandon()
	if _, err := l.Append(Record{Type: TypeCommit, Flow: 1}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	l.SetSyncFunc(func(*os.File) error { return boom })
	seq, err := l.Enqueue(Record{Type: TypeCommit, Flow: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(seq); !errors.Is(err, boom) {
		t.Fatalf("WaitDurable = %v, want the injected failure", err)
	}
	if err := l.WaitDurable(1); err != nil {
		t.Fatalf("a record synced before the failure must stay acknowledged, got %v", err)
	}
	l.SetSyncFunc((*os.File).Sync)
	if _, err := l.Append(Record{Type: TypeCommit, Flow: 3}); !errors.Is(err, boom) {
		t.Fatalf("append after a failed fsync = %v, want the latched failure", err)
	}
	if err := l.WriteSnapshot([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("snapshot after a failed fsync = %v, want the latched failure", err)
	}
}

// BenchmarkWALGroupCommit measures what group commit is for: fsyncs per
// acknowledged append as concurrent writers are added.
func BenchmarkWALGroupCommit(b *testing.B) {
	for _, writers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			l, _, err := Open(b.TempDir(), Options{Sync: SyncPerCommit})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			var fsyncs atomic.Int64
			l.SetSyncFunc(func(f *os.File) error {
				fsyncs.Add(1)
				return f.Sync()
			})
			payload := make([]byte, 512)
			var next atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for next.Add(1) <= int64(b.N) {
						if _, err := l.Append(Record{Type: TypeCommit, Data: payload}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(fsyncs.Load())/float64(b.N), "fsyncs/append")
		})
	}
}
