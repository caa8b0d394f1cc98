// Package wal is the durability layer's write-ahead log: a segmented
// append-only log of CRC32C-framed records with group commit and a
// configurable fsync policy. The log knows nothing about the index that
// uses it — records are (type, payload) pairs stamped with monotonically
// increasing log sequence numbers (LSNs) — and pairs with checkpoint
// files (checkpoint.go) so recovery replays only the tail written after
// the last complete snapshot.
//
// On-disk layout (all integers little-endian):
//
//	dir/
//	  wal-<seq>.seg     log segments, in seq order
//	  ckpt-<lsn>.snap   checkpoint blobs, named by their barrier LSN
//
// Segment = header [magic u64 | version u64 | firstLSN u64 | crc u32],
// then frames. Frame = [crc u32 | len u32 | type u8 | payload]; the CRC
// (Castagnoli) covers len, type and payload, so a torn or zero-filled
// tail fails verification. LSNs are implicit: the i-th frame of a
// segment has LSN firstLSN+i, which keeps frames at 9 bytes of overhead
// and makes cross-segment continuity checkable (the next segment's
// firstLSN must equal the previous segment's end).
//
// Torn-tail policy (applied by Open): an invalid frame in the LAST
// segment is a torn tail — the segment is truncated at the last valid
// frame boundary and the log continues from there; an invalid frame in
// any earlier segment is hard corruption and Open fails with a typed
// error, because records after it were acked durable.
//
// On Linux the active segment is preallocated and memory-mapped, and a
// commit copies its frames into the mapping (segment_linux.go); until the
// segment is sealed its file ends in zeros, which Open treats as part of
// the last segment's tail but not as torn bytes. Sealing cuts the file
// back to its frames before the fsync, so the format on disk is the same
// as a log written with write(2).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"
)

// Record types. The type byte is part of the CRC-protected frame, so a
// replayer can dispatch without trusting the payload.
const (
	// RecNoop carries no payload (torn-tail and framing tests).
	RecNoop uint8 = iota
	// RecInsert is one upsert: [key u64 | value u64].
	RecInsert
	// RecDelete is one delete: [key u64].
	RecDelete
	// RecBatch is a batch of upserts: [n u32 | n × (key u64, value u64)].
	RecBatch
	// RecAdapt is a redo-optional adaptation record: [unit u64 | target u8].
	// Recovery skips these — encoding migrations are re-derived by the
	// adaptation manager, never replayed (Graefe-style separation of
	// structure changes from user writes).
	RecAdapt
	// RecCheckpoint marks a completed checkpoint: [barrier u64]. Purely
	// informational in the log (the checkpoint file is authoritative).
	RecCheckpoint

	numRecTypes
)

// RedoOptional reports whether a record type encodes optional adaptation
// work that recovery skips instead of replaying.
func RedoOptional(typ uint8) bool { return typ == RecAdapt || typ == RecCheckpoint }

// SyncPolicy selects when commits are made durable.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs every commit group before acking — no acked write
	// is ever lost. Concurrent committers share one fsync (group commit).
	SyncAlways SyncPolicy = iota
	// SyncInterval hands records to the OS at commit and fsyncs on a
	// timer: a crash loses at most Interval worth of acked writes (power
	// failure; an index process crash alone loses nothing the OS held).
	SyncInterval
	// SyncOS hands records to the OS at commit and never fsyncs except on
	// rotation and Close — the cheapest policy, durable to process crash
	// but not to power loss.
	SyncOS
)

// String names the policy as used in flags and metrics labels.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOS:
		return "os"
	default:
		return fmt.Sprintf("policy%d", uint8(p))
	}
}

// PolicyByName parses a policy flag value.
func PolicyByName(name string) (SyncPolicy, error) {
	switch name {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "os":
		return SyncOS, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (always|interval|os)", name)
	}
}

// Options configures a Log.
type Options struct {
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the SyncInterval fsync period (default 5ms).
	Interval time.Duration
	// SegmentBytes rotates segments past this size (default 16 MiB).
	SegmentBytes int64
	// ObserveFsyncNs, when set, receives every fsync's duration (the
	// durable wiring points it at an obs histogram).
	ObserveFsyncNs func(int64)
	// ObserveGroupN, when set, receives every commit group's record count.
	ObserveGroupN func(int64)
}

func (o *Options) setDefaults() {
	if o.Interval <= 0 {
		o.Interval = 5 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 16 << 20
	}
}

// ErrCorrupt is the typed error wrapped by every corruption failure the
// package reports — bad magic, CRC mismatch off the torn tail, broken
// LSN continuity, truncated checkpoint. errors.Is(err, ErrCorrupt)
// distinguishes "the data is damaged" from I/O errors.
var ErrCorrupt = errors.New("wal: corrupt")

const (
	segMagic   = uint64(0x41484957414c3031) // "AHIWAL01"
	segVersion = uint64(1)
	segHdrLen  = 8 + 8 + 8 + 4

	// frameHdrLen is crc u32 + len u32 + type u8.
	frameHdrLen = 4 + 4 + 1

	// MaxRecordBytes bounds one record's payload; larger length fields are
	// treated as corruption (they would otherwise drive huge allocations
	// from a flipped bit).
	MaxRecordBytes = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed record to dst and returns the extended
// slice. The layout is [crc u32 | len u32 | type u8 | payload] with the
// CRC covering everything after itself.
func AppendFrame(dst []byte, typ uint8, payload []byte) []byte {
	off := len(dst)
	var hdr [frameHdrLen]byte
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(payload)))
	hdr[8] = typ
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.Checksum(dst[off+4:], castagnoli)
	binary.LittleEndian.PutUint32(dst[off:], crc)
	return dst
}

// DecodeFrame decodes the frame at the head of b. It returns the record
// type, its payload (aliasing b), and the total frame size. A short,
// torn, or CRC-invalid frame returns an error wrapping ErrCorrupt; the
// caller decides whether that means "torn tail, truncate here" or "hard
// corruption".
func DecodeFrame(b []byte) (typ uint8, payload []byte, size int, err error) {
	if len(b) < frameHdrLen {
		return 0, nil, 0, fmt.Errorf("%w: short frame header (%d bytes)", ErrCorrupt, len(b))
	}
	n := binary.LittleEndian.Uint32(b[4:])
	if n > MaxRecordBytes {
		return 0, nil, 0, fmt.Errorf("%w: implausible record length %d", ErrCorrupt, n)
	}
	size = frameHdrLen + int(n)
	if len(b) < size {
		return 0, nil, 0, fmt.Errorf("%w: truncated record (%d of %d bytes)", ErrCorrupt, len(b), size)
	}
	want := binary.LittleEndian.Uint32(b)
	if got := crc32.Checksum(b[4:size], castagnoli); got != want {
		return 0, nil, 0, fmt.Errorf("%w: record CRC mismatch (got %#x want %#x)", ErrCorrupt, got, want)
	}
	return b[8], b[frameHdrLen:size], size, nil
}

// EncodeInsert renders a RecInsert payload.
func EncodeInsert(dst []byte, k, v uint64) []byte {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:], k)
	binary.LittleEndian.PutUint64(buf[8:], v)
	return append(dst, buf[:]...)
}

// DecodeInsert parses a RecInsert payload.
func DecodeInsert(p []byte) (k, v uint64, err error) {
	if len(p) != 16 {
		return 0, 0, fmt.Errorf("%w: insert payload %d bytes", ErrCorrupt, len(p))
	}
	return binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]), nil
}

// EncodeDelete renders a RecDelete payload.
func EncodeDelete(dst []byte, k uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], k)
	return append(dst, buf[:]...)
}

// DecodeDelete parses a RecDelete payload.
func DecodeDelete(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, fmt.Errorf("%w: delete payload %d bytes", ErrCorrupt, len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// EncodeBatch renders a RecBatch payload from parallel key/value slices.
func EncodeBatch(dst []byte, keys, vals []uint64) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(keys)))
	dst = append(dst, n[:]...)
	var buf [16]byte
	for i, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], k)
		binary.LittleEndian.PutUint64(buf[8:], vals[i])
		dst = append(dst, buf[:]...)
	}
	return dst
}

// DecodeBatch parses a RecBatch payload, appending to keys/vals.
func DecodeBatch(p []byte, keys, vals []uint64) ([]uint64, []uint64, error) {
	if len(p) < 4 {
		return keys, vals, fmt.Errorf("%w: batch payload %d bytes", ErrCorrupt, len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	if len(p) != 4+16*n {
		return keys, vals, fmt.Errorf("%w: batch payload %d bytes for count %d", ErrCorrupt, len(p), n)
	}
	for i := 0; i < n; i++ {
		off := 4 + 16*i
		keys = append(keys, binary.LittleEndian.Uint64(p[off:]))
		vals = append(vals, binary.LittleEndian.Uint64(p[off+8:]))
	}
	return keys, vals, nil
}

// EncodeAdapt renders a RecAdapt payload.
func EncodeAdapt(dst []byte, unit uint64, target uint8) []byte {
	var buf [9]byte
	binary.LittleEndian.PutUint64(buf[:], unit)
	buf[8] = target
	return append(dst, buf[:]...)
}

// DecodeAdapt parses a RecAdapt payload.
func DecodeAdapt(p []byte) (unit uint64, target uint8, err error) {
	if len(p) != 9 {
		return 0, 0, fmt.Errorf("%w: adapt payload %d bytes", ErrCorrupt, len(p))
	}
	return binary.LittleEndian.Uint64(p), p[8], nil
}
