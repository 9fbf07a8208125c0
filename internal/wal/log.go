package wal

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dagsfc/internal/telemetry"
)

// SyncPolicy decides when appended records are forced to stable storage.
type SyncPolicy int

const (
	// SyncPerCommit makes WaitDurable (and so Append) return only once the
	// record is flushed and fsynced: an acknowledged mutation survives any
	// crash, process or machine. Concurrent waiters share fsyncs (group
	// commit); a lone appender pays one per record. The strongest and
	// slowest mode.
	SyncPerCommit SyncPolicy = iota
	// SyncBatched group-commits: appends land in the user-space buffer and
	// a background flusher flushes + fsyncs every FlushInterval. A crash
	// of any kind can lose up to one flush window of acknowledged work.
	SyncBatched
	// SyncOff flushes each append to the OS (one write syscall) but never
	// fsyncs: a process kill loses nothing, a machine crash can lose
	// everything since the last OS writeback.
	SyncOff
)

// ParseSyncPolicy maps the CLI spelling to the policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "commit", "per-commit":
		return SyncPerCommit, nil
	case "batch", "batched":
		return SyncBatched, nil
	case "off", "none":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want commit, batch or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncPerCommit:
		return "commit"
	case SyncBatched:
		return "batch"
	case SyncOff:
		return "off"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options tunes a Log. Zero values take the documented defaults.
type Options struct {
	// Sync is the fsync policy (default SyncPerCommit).
	Sync SyncPolicy
	// FlushInterval is the SyncBatched group-commit period (default 5ms).
	FlushInterval time.Duration
	// segmentBytes rotates the active segment once it grows past this
	// size (default 4 MiB); only tests set it, to rotate often.
	segmentBytes int64
}

// keepSnapshots is how many snapshot generations retention preserves: the
// newest plus one fallback.
const keepSnapshots = 2

// ErrUnrecoverable wraps recovery failures that cannot be repaired by
// truncation: corruption before the final segment, a sequence gap between
// the best snapshot and the surviving log, or an unreadable directory.
// A server finding it must refuse to start rather than open empty.
var ErrUnrecoverable = errors.New("wal: unrecoverable log directory")

// Recovery is what Open reconstructed from disk: the newest valid
// snapshot (nil payload if none) and every record after its watermark, in
// log order. Truncated counts bytes cut off a torn final segment;
// SnapshotsSkipped counts corrupt snapshots passed over for older ones.
type Recovery struct {
	SnapshotSeq      uint64
	Snapshot         []byte
	Tail             []Record
	Truncated        int64
	SnapshotsSkipped int
}

// Log is the append side. All methods are safe for concurrent use; the
// caller is expected to serialize appends that must stay ordered relative
// to each other (the server enqueues under its state mutex).
//
// Appending is two steps so that callers can overlap: Enqueue frames a
// record into the user-space buffer and hands back its sequence number,
// WaitDurable blocks until that record is as safe as the sync policy
// promises. Under SyncPerCommit waiters elect a leader: the first one
// flushes the buffer and fsyncs with mu released, so records keep being
// enqueued behind it; every waiter whose record the flush covered returns
// with the leader, and the next waiter leads the next round.
type Log struct {
	dir  string
	opts Options
	// fsync forces a segment file to stable storage: (*os.File).Sync,
	// unless a test replaced it.
	fsync func(*os.File) error

	mu sync.Mutex
	// synced is signalled whenever a leader's fsync finishes or the log
	// closes: followers re-check their sequence number, and whoever needs
	// the file to itself (rotation, snapshot, close) proceeds.
	synced   *sync.Cond
	f        *os.File
	w        *bufio.Writer
	buf      []byte // frame scratch, reused across appends
	seq      uint64 // last assigned sequence number
	flushed  uint64 // last seq handed to the OS
	durable  uint64 // last seq covered by a completed fsync
	syncing  bool   // a leader is inside fsync with mu released
	failed   error  // first flush or fsync failure; sticks
	segStart uint64 // first seq the active segment may hold
	segBytes int64
	closed   bool

	flushStop chan struct{}
	flushDone chan struct{}
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

func segName(firstSeq uint64) string { return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix) }
func snapName(seq uint64) string     { return fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix) }
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 16, 64)
	return v, err == nil
}

// Open recovers the log directory (created if missing) and returns the
// append handle plus everything a server needs to rebuild state: the
// newest valid snapshot and the record tail after it. A torn final record
// is truncated in place; corruption anywhere else is ErrUnrecoverable.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.FlushInterval <= 0 {
		opts.FlushInterval = 5 * time.Millisecond
	}
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = 4 << 20
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	rec, err := scan(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opts: opts, fsync: (*os.File).Sync, seq: rec.lastSeq, flushed: rec.lastSeq, durable: rec.lastSeq}
	l.synced = sync.NewCond(&l.mu)
	if err := l.openSegment(rec.lastSeq + 1); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	if opts.Sync == SyncBatched {
		l.flushStop = make(chan struct{})
		l.flushDone = make(chan struct{})
		go l.flushLoop(l.flushStop, l.flushDone)
	}
	return l, rec.Recovery, nil
}

type scanResult struct {
	*Recovery
	lastSeq uint64 // highest seq present anywhere (snapshot watermark or tail)
}

// scan reads the directory: pick the newest decodable snapshot, then
// replay every segment record with seq beyond its watermark.
func scan(dir string) (*scanResult, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	var segs []uint64
	var snaps []uint64
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, s)
		}
		if s, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, s)
		}
	}
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] > snaps[k] }) // newest first

	rec := &Recovery{}
	for _, s := range snaps {
		payload, err := readSnapshot(filepath.Join(dir, snapName(s)))
		if err != nil {
			rec.SnapshotsSkipped++
			continue
		}
		rec.SnapshotSeq, rec.Snapshot = s, payload
		break
	}
	if rec.Snapshot == nil && rec.SnapshotsSkipped > 0 && len(segs) == 0 {
		return nil, fmt.Errorf("%w: every snapshot is corrupt and no log segments remain", ErrUnrecoverable)
	}

	last := rec.SnapshotSeq
	for i, start := range segs {
		path := filepath.Join(dir, segName(start))
		final := i == len(segs)-1
		segLast, err := replaySegment(path, rec, final, last)
		if err != nil {
			return nil, err
		}
		if segLast > last {
			last = segLast
		}
	}
	// A snapshot's replay starts at SnapshotSeq+1; if the oldest surviving
	// record after it is later than that, retention (or damage) opened a
	// gap and the state cannot be rebuilt faithfully.
	if len(rec.Tail) > 0 && rec.Tail[0].Seq > rec.SnapshotSeq+1 {
		return nil, fmt.Errorf("%w: log gap: snapshot covers seq %d but the oldest surviving record is %d",
			ErrUnrecoverable, rec.SnapshotSeq, rec.Tail[0].Seq)
	}
	return &scanResult{Recovery: rec, lastSeq: last}, nil
}

// replaySegment decodes one segment file, appending records beyond the
// snapshot watermark to rec.Tail. On a torn or corrupt record: the final
// segment is truncated at the bad frame (the crash tail); any earlier
// segment is unrecoverable, because records after the damage exist and
// replaying around a hole would rebuild inconsistent state.
func replaySegment(path string, rec *Recovery, final bool, after uint64) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrUnrecoverable, err)
	}
	var last uint64
	off := 0
	for off < len(data) {
		r, n, err := decodeFrame(data[off:])
		if err != nil {
			if !final {
				return 0, fmt.Errorf("%w: %s: bad record at offset %d in a non-final segment: %v",
					ErrUnrecoverable, filepath.Base(path), off, err)
			}
			cut := int64(len(data) - off)
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return 0, fmt.Errorf("%w: truncating torn tail of %s: %v", ErrUnrecoverable, filepath.Base(path), terr)
			}
			rec.Truncated += cut
			return last, nil
		}
		// Sequence numbers must advance; a repeat or reversal inside one
		// segment means the framing resynchronized onto garbage.
		if r.Seq <= last && last != 0 {
			return 0, fmt.Errorf("%w: %s: sequence went backwards (%d after %d)",
				ErrUnrecoverable, filepath.Base(path), r.Seq, last)
		}
		last = r.Seq
		if r.Seq > after {
			rec.Tail = append(rec.Tail, r)
		}
		off += n
	}
	return last, nil
}

func (l *Log) openSegment(firstSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(firstSeq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 64<<10)
	l.segStart = firstSeq
	l.segBytes = st.Size()
	return nil
}

// SetSyncFunc replaces the call that forces a segment file to stable
// storage. It is a fault-injection seam for tests, of this package and of
// its callers; nothing else calls it. Set it before the first append.
func (l *Log) SetSyncFunc(fsync func(*os.File) error) {
	l.mu.Lock()
	l.fsync = fsync
	l.mu.Unlock()
}

// Append is Enqueue followed by WaitDurable: it returns once the record is
// as durable as the sync policy promises.
func (l *Log) Append(rec Record) (uint64, error) {
	seq, err := l.Enqueue(rec)
	if err != nil {
		return seq, err
	}
	return seq, l.WaitDurable(seq)
}

// Enqueue assigns the next sequence number to rec and writes its frame
// into the log's buffer. Nothing is forced anywhere: the record survives a
// crash only once WaitDurable(seq) — for this or any later seq — has
// returned nil, or a later Sync, snapshot or Close has.
func (l *Log) Enqueue(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if l.failed != nil {
		return 0, l.failed
	}
	l.seq++
	rec.Seq = l.seq
	if rec.Time.IsZero() {
		rec.Time = time.Now()
	}
	l.buf = appendFrame(l.buf[:0], rec)
	if _, err := l.w.Write(l.buf); err != nil {
		return rec.Seq, l.fail(err)
	}
	l.segBytes += int64(len(l.buf))
	telemetry.RecordWALAppend(len(l.buf))
	if l.segBytes >= l.opts.segmentBytes {
		// Rotation needs the file to itself. Another appender may rotate
		// while this one waits out a leader's fsync, so look again after.
		l.awaitSyncLocked()
		if l.segBytes >= l.opts.segmentBytes && !l.closed {
			if err := l.rotateLocked(); err != nil {
				return rec.Seq, l.fail(err)
			}
		}
	}
	return rec.Seq, nil
}

// WaitDurable blocks until the record with sequence number seq is as
// durable as the sync policy promises: fsynced under SyncPerCommit, handed
// to the OS under SyncOff, merely buffered under SyncBatched (the flusher
// owns the fsync). Under SyncPerCommit the first waiter becomes the
// leader, flushing and fsyncing everything enqueued so far; waiters whose
// record that covers return with it, so concurrent callers share fsyncs.
// A failed flush or fsync fails the log for good: the error is returned to
// every waiter it may have affected and to every later call.
func (l *Log) WaitDurable(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq > l.seq {
		return fmt.Errorf("wal: wait for seq %d, but the last append is %d", seq, l.seq)
	}
	switch l.opts.Sync {
	case SyncBatched:
		return l.failed
	case SyncOff:
		if l.flushed >= seq {
			return nil
		}
		if l.closed {
			return fmt.Errorf("wal: log closed before seq %d was flushed", seq)
		}
		return l.flushLocked()
	}
	for l.durable < seq {
		switch {
		case l.failed != nil:
			return l.failed
		case l.closed:
			return fmt.Errorf("wal: log closed before seq %d was synced", seq)
		case l.syncing:
			l.synced.Wait()
		default:
			l.leadSyncLocked()
		}
	}
	return nil
}

// leadSyncLocked runs one group-commit round: flush under mu, fsync with
// mu released so appenders keep enqueuing behind it, then publish the new
// durable watermark. Caller holds mu and has checked that no other round
// is in flight.
func (l *Log) leadSyncLocked() {
	if l.flushLocked() != nil {
		return
	}
	target, f, fsync := l.flushed, l.f, l.fsync
	l.syncing = true
	l.mu.Unlock()
	err := fsync(f)
	l.mu.Lock()
	l.syncing = false
	if err != nil {
		_ = l.fail(err)
	} else {
		l.durable = max(l.durable, target)
		telemetry.RecordWALFsync()
	}
	l.synced.Broadcast()
}

// awaitSyncLocked waits out a leader's in-flight fsync: whoever is about
// to flush-and-fsync inline, or to close or replace the segment file, needs
// it to itself. Caller holds mu.
func (l *Log) awaitSyncLocked() {
	for l.syncing {
		l.synced.Wait()
	}
}

// fail latches the log's first I/O failure and returns it. After a failed
// write or fsync the kernel may have dropped the dirty pages, so no later
// fsync can vouch for the records before it.
func (l *Log) fail(err error) error {
	if l.failed == nil {
		l.failed = fmt.Errorf("wal: log failed: %w", err)
	}
	return l.failed
}

// flushLocked hands every buffered frame to the OS. Caller holds mu.
func (l *Log) flushLocked() error {
	if l.failed != nil {
		return l.failed
	}
	if err := l.w.Flush(); err != nil {
		return l.fail(err)
	}
	l.flushed = l.seq
	return nil
}

// rotateLocked seals the active segment and starts the next one. Caller
// holds mu with no fsync in flight.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.seq + 1)
}

// Sync flushes buffered frames to the OS and, unless the policy is
// SyncOff, fsyncs. It is SyncBatched's group-commit tick and an on-demand
// barrier for tests; per-record durability goes through WaitDurable.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.awaitSyncLocked()
	return l.syncLocked()
}

// syncLocked flushes and fsyncs inline. Caller holds mu with no fsync in
// flight.
func (l *Log) syncLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if l.durable == l.seq || l.opts.Sync == SyncOff {
		return nil
	}
	if err := l.fsync(l.f); err != nil {
		return l.fail(err)
	}
	l.durable = l.seq
	telemetry.RecordWALFsync()
	return nil
}

// flushLoop is the SyncBatched group-commit flusher. The channels are
// passed in rather than read off the struct: stopFlusher nils
// l.flushStop (for idempotence) before closing it, and re-reading the
// field here would both race with that write and, once nil, block the
// stop case forever.
func (l *Log) flushLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(l.opts.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_ = l.Sync()
		}
	}
}

// WriteSnapshot persists payload as a snapshot covering every record up
// to and including the current last sequence, then prunes: old snapshots
// beyond the retention count and every segment wholly covered by the
// surviving snapshots are deleted. The snapshot is written to a temp file
// and renamed, so a crash mid-write leaves the previous generation valid.
func (l *Log) WriteSnapshot(payload []byte) error {
	begin := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: snapshot on closed log")
	}
	l.awaitSyncLocked()
	// The snapshot claims coverage of seq ≤ watermark; make those records
	// at least as durable as the snapshot about to supersede them.
	if err := l.syncLocked(); err != nil {
		return err
	}
	watermark := l.seq
	if err := writeSnapshot(filepath.Join(l.dir, snapName(watermark)), payload, l.opts.Sync != SyncOff); err != nil {
		return err
	}
	// Seal the active segment so it becomes deletable at the next
	// snapshot; retention below only ever removes sealed segments.
	if err := l.rotateLocked(); err != nil {
		return err
	}
	l.pruneLocked()
	telemetry.RecordWALSnapshot(len(payload), time.Since(begin))
	return nil
}

// pruneLocked deletes snapshots beyond the retention count and segments
// wholly covered by the oldest retained snapshot. Best-effort: an
// undeletable file costs disk, not correctness.
func (l *Log) pruneLocked() {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if s, ok := parseSeq(e.Name(), segPrefix, segSuffix); ok {
			segs = append(segs, s)
		}
		if s, ok := parseSeq(e.Name(), snapPrefix, snapSuffix); ok {
			snaps = append(snaps, s)
		}
	}
	sort.Slice(snaps, func(i, k int) bool { return snaps[i] > snaps[k] })
	if len(snaps) > keepSnapshots {
		for _, s := range snaps[keepSnapshots:] {
			_ = os.Remove(filepath.Join(l.dir, snapName(s)))
		}
		snaps = snaps[:keepSnapshots]
	}
	if len(snaps) == 0 {
		return
	}
	// Replay after a fallback starts at the OLDEST retained snapshot's
	// watermark, so only segments wholly below it may go. A segment
	// [start_i, start_{i+1}) is covered when the next segment starts at or
	// before watermark+1; the active segment is never removed.
	oldest := snaps[len(snaps)-1]
	sort.Slice(segs, func(i, k int) bool { return segs[i] < segs[k] })
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1] <= oldest+1 && segs[i] != l.segStart {
			_ = os.Remove(filepath.Join(l.dir, segName(segs[i])))
		}
	}
}

// Close flushes, fsyncs (per policy) and closes the log.
func (l *Log) Close() error {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncLocked()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.syncLocked()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.synced.Broadcast()
	return err
}

// Abandon closes the log WITHOUT flushing the user-space buffer — the
// in-process stand-in for SIGKILL. Frames already written reach the OS
// and survive (as they would a real process kill); frames still buffered
// are lost, exactly like bytes a killed process never wrote.
func (l *Log) Abandon() {
	l.stopFlusher()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.awaitSyncLocked()
	if l.closed {
		return
	}
	l.closed = true
	_ = l.f.Close()
	l.synced.Broadcast()
}

func (l *Log) stopFlusher() {
	l.mu.Lock()
	stop, done := l.flushStop, l.flushDone
	l.flushStop = nil
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
}
