package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dagsfc/internal/telemetry"
)

func mustOpen(t *testing.T, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

func TestRecordRoundTrip(t *testing.T) {
	in := Record{
		Seq:  42,
		Type: TypeCommit,
		Flow: -7,
		Time: time.Unix(0, 1_700_000_000_123_456_789),
		Data: []byte("payload bytes"),
	}
	frame := appendFrame(nil, in)
	out, n, err := decodeFrame(frame)
	if err != nil {
		t.Fatalf("decodeFrame: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("frame length %d, decoded %d", len(frame), n)
	}
	if out.Seq != in.Seq || out.Type != in.Type || out.Flow != in.Flow ||
		!out.Time.Equal(in.Time) || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v", in, out)
	}
}

func TestDecodeFrameErrors(t *testing.T) {
	frame := appendFrame(nil, Record{Seq: 1, Type: TypeAdmit})
	if _, _, err := decodeFrame(frame[:3]); !errors.Is(err, ErrTorn) {
		t.Fatalf("short header: got %v, want ErrTorn", err)
	}
	if _, _, err := decodeFrame(frame[:len(frame)-1]); !errors.Is(err, ErrTorn) {
		t.Fatalf("short body: got %v, want ErrTorn", err)
	}
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0xFF
	if _, _, err := decodeFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped byte: got %v, want ErrCorrupt", err)
	}
	huge := append([]byte(nil), frame...)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := decodeFrame(huge); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("absurd length: got %v, want ErrCorrupt", err)
	}
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	l, rec := mustOpen(t, dir, Options{Sync: SyncOff})
	if rec.Snapshot != nil || len(rec.Tail) != 0 {
		t.Fatalf("fresh dir recovered non-empty state: %+v", rec)
	}
	var want []Record
	for i := 0; i < 10; i++ {
		r := Record{Type: TypeCommit, Flow: int64(i), Data: []byte(fmt.Sprintf("flow-%d", i))}
		seq, err := l.Append(r)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", seq, i+1)
		}
		r.Seq = seq
		want = append(want, r)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := mustOpen(t, dir, Options{Sync: SyncOff})
	defer l2.Close()
	if len(rec2.Tail) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(rec2.Tail), len(want))
	}
	for i, r := range rec2.Tail {
		if r.Seq != want[i].Seq || r.Type != want[i].Type || r.Flow != want[i].Flow ||
			!bytes.Equal(r.Data, want[i].Data) {
			t.Fatalf("record %d mismatch: got %+v want %+v", i, r, want[i])
		}
	}
	// Sequence numbering continues above the recovered high-water mark.
	if seq, _ := l2.Append(Record{Type: TypeRelease}); seq != 11 {
		t.Fatalf("post-recovery seq %d, want 11", seq)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncOff})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Record{Type: TypeCommit, Flow: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) == 0 {
		t.Fatal("no segment written")
	}
	seg := segs[len(segs)-1]
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop mid-record: drop the last 5 bytes of the final frame.
	if err := os.WriteFile(seg, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, dir, Options{Sync: SyncOff})
	defer l2.Close()
	if len(rec.Tail) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(rec.Tail))
	}
	if rec.Truncated == 0 {
		t.Fatal("Truncated not reported")
	}
	// The file was repaired in place: a second reopen sees a clean log.
	l2.Close()
	l3, rec3 := mustOpen(t, dir, Options{Sync: SyncOff})
	defer l3.Close()
	if len(rec3.Tail) != 4 || rec3.Truncated != 0 {
		t.Fatalf("second reopen: %d records, %d truncated; want 4, 0", len(rec3.Tail), rec3.Truncated)
	}
}

func TestCorruptInteriorSegmentUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation so we get multiple files.
	l, _ := mustOpen(t, dir, Options{Sync: SyncOff, SegmentBytes: 64})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(Record{Type: TypeCommit, Flow: int64(i), Data: make([]byte, 40)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("expected ≥3 segments, got %d", len(segs))
	}
	data, _ := os.ReadFile(segs[0])
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err := Open(dir, Options{Sync: SyncOff, SegmentBytes: 64})
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("corrupt interior segment: got %v, want ErrUnrecoverable", err)
	}
}

func TestSnapshotBoundsReplayAndPrunes(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncOff, SegmentBytes: 128})
	for i := 0; i < 10; i++ {
		if _, err := l.Append(Record{Type: TypeCommit, Flow: int64(i), Data: make([]byte, 64)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("state@10")); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	for i := 10; i < 13; i++ {
		if _, err := l.Append(Record{Type: TypeRelease, Flow: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	l2, rec := mustOpen(t, dir, Options{Sync: SyncOff, SegmentBytes: 128})
	defer l2.Close()
	if string(rec.Snapshot) != "state@10" {
		t.Fatalf("snapshot payload %q", rec.Snapshot)
	}
	// The size gauge reports the snapshot the restart reads.
	if size, _ := telemetry.Default().Snapshot().Series(telemetry.MetricWALSnapshotBytes); size.Value != float64(len(rec.Snapshot)) {
		t.Fatalf("snapshot size gauge = %v, want the %d bytes recovery read", size.Value, len(rec.Snapshot))
	}
	if rec.SnapshotSeq != 10 {
		t.Fatalf("snapshot seq %d, want 10", rec.SnapshotSeq)
	}
	if len(rec.Tail) != 3 || rec.Tail[0].Seq != 11 {
		t.Fatalf("tail after snapshot: %d records starting %d, want 3 starting 11", len(rec.Tail), rec.Tail[0].Seq)
	}
}

func TestRetentionKeepsFallbackSnapshot(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncOff, SegmentBytes: 128})
	for snap := 0; snap < 4; snap++ {
		for i := 0; i < 6; i++ {
			if _, err := l.Append(Record{Type: TypeCommit, Data: make([]byte, 64)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.WriteSnapshot([]byte(fmt.Sprintf("state@%d", l.seq))); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 2 {
		t.Fatalf("retention kept %d snapshots, want 2", len(snaps))
	}

	// Corrupt the newest snapshot: recovery must fall back to the older
	// one and replay the longer tail — and the surviving segments must
	// actually cover that tail (retention must not have deleted them).
	newest := snaps[len(snaps)-1]
	data, _ := os.ReadFile(newest)
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, dir, Options{Sync: SyncOff, SegmentBytes: 128})
	defer l2.Close()
	if rec.SnapshotsSkipped != 1 {
		t.Fatalf("SnapshotsSkipped = %d, want 1", rec.SnapshotsSkipped)
	}
	if string(rec.Snapshot) != "state@18" {
		t.Fatalf("fell back to snapshot %q, want state@18", rec.Snapshot)
	}
	if len(rec.Tail) != 6 || rec.Tail[0].Seq != 19 {
		t.Fatalf("fallback tail: %d records starting at %d, want 6 starting 19",
			len(rec.Tail), rec.Tail[0].Seq)
	}
}

func TestAbandonKeepsSyncedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncPerCommit})
	// Under SyncPerCommit every append is a durability barrier: Abandon
	// (the in-process SIGKILL) must lose nothing that Append acknowledged.
	for i := 0; i < 4; i++ {
		if _, err := l.Append(Record{Type: TypeCommit, Flow: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Abandon()

	l2, rec := mustOpen(t, dir, Options{Sync: SyncPerCommit})
	defer l2.Close()
	if len(rec.Tail) != 4 {
		t.Fatalf("lost synced records: replayed %d, want 4", len(rec.Tail))
	}
	for i := 0; i < 4; i++ {
		if rec.Tail[i].Type != TypeCommit || rec.Tail[i].Flow != int64(i) {
			t.Fatalf("record %d: %+v", i, rec.Tail[i])
		}
	}
}

func TestBatchedFlusherSyncs(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncBatched, FlushInterval: time.Millisecond})
	if _, err := l.Append(Record{Type: TypeCommit, Flow: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.mu.Lock()
		clean := l.durable == l.seq
		l.mu.Unlock()
		if clean {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("batched flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
	l.Abandon() // flushed by the background flusher ⇒ record survives
	l2, rec := mustOpen(t, dir, Options{Sync: SyncOff})
	defer l2.Close()
	if len(rec.Tail) != 1 {
		t.Fatalf("replayed %d records after batched flush + abandon, want 1", len(rec.Tail))
	}
}

func TestSnapshotGapUnrecoverable(t *testing.T) {
	dir := t.TempDir()
	l, _ := mustOpen(t, dir, Options{Sync: SyncOff})
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Record{Type: TypeCommit}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteSnapshot([]byte("s")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append(Record{Type: TypeCommit}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Delete the snapshot: the tail now starts at seq 6 with no snapshot
	// and no segment holding 1..5 (it was pruned) ⇒ unrecoverable gap.
	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	for _, s := range snaps {
		os.Remove(s)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	removedEarly := false
	for _, s := range segs {
		if seq, ok := parseSeq(filepath.Base(s), segPrefix, segSuffix); ok && seq == 1 {
			os.Remove(s)
			removedEarly = true
		}
	}
	if !removedEarly {
		t.Skip("layout did not produce a seq-1 segment to remove")
	}
	_, _, err := Open(dir, Options{Sync: SyncOff})
	if !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("gap: got %v, want ErrUnrecoverable", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"": SyncPerCommit, "commit": SyncPerCommit, "per-commit": SyncPerCommit,
		"batch": SyncBatched, "batched": SyncBatched,
		"off": SyncOff, "none": SyncOff,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy(bogus) succeeded")
	}
}
