// Package wal is the durability layer under the serving control plane: an
// append-only, length-prefixed, CRC32C-checksummed binary log of flow
// lifecycle events plus periodic full-state snapshots. The server appends
// one record per state mutation (commit, release, expiry, repair
// outcomes, fault apply/restore) in exactly the order the mutations hit
// the ledger, so replaying the log through the same machinery rebuilds
// the state byte-for-byte. Snapshots bound replay length and let old log
// segments be deleted.
//
// The package is deliberately semantics-free: a Record carries a type
// tag, a flow ID, a timestamp and an opaque payload; what the payload
// means is the server's business (internal/server/durable.go). That keeps
// the framing, rotation, retention and crash-recovery logic independently
// testable — and fuzzable — without dragging the control plane in.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Type discriminates the lifecycle events the log records. The values are
// part of the on-disk format; append new types, never renumber.
type Type uint8

const (
	// TypeAdmit records a flow ID leaving the allocator at admission. It
	// carries no state change — its only job is the ID high-water mark, so
	// a recovered server never re-issues an ID a rejected request already
	// used for its journal timeline.
	TypeAdmit Type = 1
	// TypeCommit records a flow's reservations entering the ledger: the
	// full placement (solution) plus the wire-form FlowInfo. A commit
	// record for a flow already known as repairing is a repair success
	// re-registering under the original ID.
	TypeCommit Type = 2
	// TypeRelease records a voluntary release (DELETE), including the
	// meta-only release of a tombstone or mid-repair flow.
	TypeRelease Type = 3
	// TypeExpire records a TTL auto-release.
	TypeExpire Type = 4
	// TypeEvict records a repair giving up: the flow becomes a terminal
	// evicted tombstone (no reservations; payload carries the last error).
	TypeEvict Type = 5
	// TypeFaultApply and TypeFaultRestore record quarantine changes.
	TypeFaultApply   Type = 6
	TypeFaultRestore Type = 7
	// TypeStrand records a fault releasing a flow's reservations and
	// marking it repairing.
	TypeStrand Type = 8
	// TypeBackup records a protected flow gaining (or regaining, via the
	// restore controller) a disjoint backup embedding: the payload is
	// the backup solution plus its cost, reserved in the ledger under the
	// flow's ID.
	TypeBackup Type = 9
	// TypeFailover records a fault killing a protected flow's primary and
	// the backup being promoted in its place: the primary's reservations
	// leave the ledger, the backup's stay. The payload carries the fault.
	TypeFailover Type = 10
	// TypeBackupLoss records a fault killing a protected flow's backup
	// while the primary survives: the backup's reservations leave the
	// ledger and the flow queues for re-protection.
	TypeBackupLoss Type = 11
)

// String names the record type. The names are the serving stack's one
// vocabulary for state changes: flowstate.Kind and the server's journal
// use them too. Only text carries them; the type byte on disk is the value.
func (t Type) String() string {
	switch t {
	case TypeAdmit:
		return "admit"
	case TypeCommit:
		return "commit"
	case TypeRelease:
		return "release"
	case TypeExpire:
		return "expire"
	case TypeEvict:
		return "evict"
	case TypeFaultApply:
		return "fault_apply"
	case TypeFaultRestore:
		return "fault_restore"
	case TypeStrand:
		return "strand"
	case TypeBackup:
		return "backup"
	case TypeFailover:
		return "failover"
	case TypeBackupLoss:
		return "backup_loss"
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Record is one log entry. Seq is assigned by Append (monotonic from 1,
// never reused); Time is wall-clock at append, which recovery uses for
// TTL math; Data is the type-specific payload the server owns.
type Record struct {
	Seq  uint64
	Type Type
	Flow int64
	Time time.Time
	Data []byte
}

// Frame layout, little-endian:
//
//	[4] body length n
//	[4] CRC32C (Castagnoli) of the n body bytes
//	[n] body: type(1) seq(8) flow(8) unix-nanos(8) payload(n-25)
//
// A record is valid iff the full frame is present and the CRC matches;
// anything else is a torn or corrupt tail and replay stops there.
const (
	frameHeaderLen = 8
	bodyFixedLen   = 1 + 8 + 8 + 8
	// maxBodyLen caps a frame so a corrupt length prefix cannot ask the
	// reader to allocate gigabytes. Snapshots of very large servers are
	// the biggest payloads; 256 MiB is far above anything real.
	maxBodyLen = 256 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Framing errors. ErrTorn covers an incomplete final frame (the classic
// crash-mid-write); ErrCorrupt covers a CRC mismatch or an impossible
// length. Recovery treats both as "the log ends here".
var (
	ErrTorn    = errors.New("wal: torn record (incomplete frame)")
	ErrCorrupt = errors.New("wal: corrupt record (checksum or length)")
)

// appendFrame encodes rec onto buf and returns the extended slice.
func appendFrame(buf []byte, rec Record) []byte {
	n := bodyFixedLen + len(rec.Data)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	crcAt := len(buf)
	buf = append(buf, 0, 0, 0, 0) // CRC placeholder
	bodyAt := len(buf)
	buf = append(buf, byte(rec.Type))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Flow))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.Time.UnixNano()))
	buf = append(buf, rec.Data...)
	crc := crc32.Checksum(buf[bodyAt:], castagnoli)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// decodeFrame decodes the first frame in b. It returns the record, the
// number of bytes the frame occupied, and ErrTorn/ErrCorrupt when the
// bytes do not hold one complete valid frame.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeaderLen {
		return Record{}, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b)
	if n < bodyFixedLen || n > maxBodyLen {
		return Record{}, 0, ErrCorrupt
	}
	total := frameHeaderLen + int(n)
	if len(b) < total {
		return Record{}, 0, ErrTorn
	}
	body := b[frameHeaderLen:total]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(b[4:]) {
		return Record{}, 0, ErrCorrupt
	}
	rec := Record{
		Type: Type(body[0]),
		Seq:  binary.LittleEndian.Uint64(body[1:]),
		Flow: int64(binary.LittleEndian.Uint64(body[9:])),
		Time: time.Unix(0, int64(binary.LittleEndian.Uint64(body[17:]))),
	}
	if payload := body[bodyFixedLen:]; len(payload) > 0 {
		rec.Data = append([]byte(nil), payload...)
	}
	return rec, total, nil
}
