package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{
		nil,
		{},
		{0x42},
		bytes.Repeat([]byte{0xAB}, 1000),
	}
	for _, p := range payloads {
		for typ := uint8(0); typ < numRecTypes; typ++ {
			frame := AppendFrame(nil, typ, p)
			gotTyp, gotP, size, err := DecodeFrame(frame)
			if err != nil {
				t.Fatalf("type %d payload %d bytes: %v", typ, len(p), err)
			}
			if gotTyp != typ || size != len(frame) || !bytes.Equal(gotP, p) {
				t.Fatalf("type %d payload %d bytes: round trip mismatch", typ, len(p))
			}
		}
	}
}

// TestFrameCRCEveryOffset flips one bit in every byte of a frame and
// asserts decoding always fails with ErrCorrupt — no single corrupted
// byte may yield a silently valid record.
func TestFrameCRCEveryOffset(t *testing.T) {
	payload := []byte("hello durable world")
	frame := AppendFrame(nil, RecInsert, payload)
	for off := 0; off < len(frame); off++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), frame...)
			mut[off] ^= 1 << bit
			_, _, _, err := DecodeFrame(mut)
			if err == nil {
				t.Fatalf("bit %d of byte %d flipped: decode succeeded", bit, off)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("bit %d of byte %d flipped: error %v is not ErrCorrupt", bit, off, err)
			}
		}
	}
}

// TestFrameTornTails decodes every strict prefix of a frame sequence and
// asserts each is rejected at the first incomplete frame.
func TestFrameTornTails(t *testing.T) {
	var full []byte
	full = AppendFrame(full, RecInsert, EncodeInsert(nil, 1, 2))
	full = AppendFrame(full, RecNoop, nil)
	full = AppendFrame(full, RecDelete, EncodeDelete(nil, 3))
	// Sizes of the three complete frames, in order.
	var bounds []int
	for off := 0; off < len(full); {
		_, _, size, err := DecodeFrame(full[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += size
		bounds = append(bounds, off)
	}
	for cut := 0; cut < len(full); cut++ {
		b := full[:cut]
		valid := 0
		for len(b) > 0 {
			_, _, size, err := DecodeFrame(b)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("cut %d: %v is not ErrCorrupt", cut, err)
				}
				break
			}
			b = b[size:]
			valid++
		}
		want := 0
		for _, end := range bounds {
			if cut >= end {
				want++
			}
		}
		if valid != want {
			t.Fatalf("cut %d: decoded %d complete frames, want %d", cut, valid, want)
		}
	}
}

func TestFrameZeroLengthRecords(t *testing.T) {
	var b []byte
	for i := 0; i < 10; i++ {
		b = AppendFrame(b, RecNoop, nil)
	}
	n := 0
	for len(b) > 0 {
		typ, p, size, err := DecodeFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		if typ != RecNoop || len(p) != 0 {
			t.Fatalf("record %d: type %d payload %d bytes", n, typ, len(p))
		}
		b = b[size:]
		n++
	}
	if n != 10 {
		t.Fatalf("decoded %d records, want 10", n)
	}
}

func TestFrameImplausibleLength(t *testing.T) {
	frame := AppendFrame(nil, RecNoop, nil)
	binary.LittleEndian.PutUint32(frame[4:], MaxRecordBytes+1)
	if _, _, _, err := DecodeFrame(frame); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("implausible length: %v", err)
	}
}

func TestPayloadCodecs(t *testing.T) {
	k, v, err := DecodeInsert(EncodeInsert(nil, 7, 9))
	if err != nil || k != 7 || v != 9 {
		t.Fatalf("insert: %d %d %v", k, v, err)
	}
	dk, err := DecodeDelete(EncodeDelete(nil, 11))
	if err != nil || dk != 11 {
		t.Fatalf("delete: %d %v", dk, err)
	}
	keys := []uint64{1, 5, 9}
	vals := []uint64{2, 6, 10}
	gk, gv, err := DecodeBatch(EncodeBatch(nil, keys, vals), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if gk[i] != keys[i] || gv[i] != vals[i] {
			t.Fatalf("batch slot %d: %d %d", i, gk[i], gv[i])
		}
	}
	unit, target, err := DecodeAdapt(EncodeAdapt(nil, 42, 2))
	if err != nil || unit != 42 || target != 2 {
		t.Fatalf("adapt: %d %d %v", unit, target, err)
	}
	for _, bad := range [][]byte{nil, {1}, make([]byte, 15), make([]byte, 17)} {
		if _, _, err := DecodeInsert(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("insert payload %d bytes accepted", len(bad))
		}
	}
	if _, _, err := DecodeBatch([]byte{3, 0, 0, 0}, nil, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatal("short batch accepted")
	}
}

func TestPolicyNames(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncOS} {
		got, err := PolicyByName(p.String())
		if err != nil || got != p {
			t.Fatalf("%v: %v %v", p, got, err)
		}
	}
	if _, err := PolicyByName("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func replayAll(t *testing.T, l *Log, barrier uint64) (keys []uint64, types []uint8) {
	t.Helper()
	err := l.Replay(barrier, func(lsn uint64, typ uint8, p []byte) error {
		types = append(types, typ)
		if typ == RecInsert {
			k, _, err := DecodeInsert(p)
			if err != nil {
				return err
			}
			keys = append(keys, k)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return keys, types
}

func TestLogAppendReopenReplay(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncOS} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, info, err := Open(dir, Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			if info.Barrier != 0 || info.Checkpoint != nil {
				t.Fatalf("fresh dir has checkpoint: %+v", info)
			}
			const n = 500
			for i := uint64(0); i < n; i++ {
				if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i*2)); err != nil {
					t.Fatal(err)
				}
			}
			if got := l.LastLSN(); got != n {
				t.Fatalf("LastLSN %d want %d", got, n)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			l2, info2, err := Open(dir, Options{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if info2.Records != n {
				t.Fatalf("recovered %d records want %d", info2.Records, n)
			}
			keys, _ := replayAll(t, l2, 0)
			if len(keys) != n {
				t.Fatalf("replayed %d records want %d", len(keys), n)
			}
			for i, k := range keys {
				if k != uint64(i) {
					t.Fatalf("record %d: key %d", i, k)
				}
			}
			// The log must keep assigning monotonically after reopen.
			lsn, err := l2.AppendCommit(RecInsert, EncodeInsert(nil, 999, 999))
			if err != nil || lsn != n+1 {
				t.Fatalf("post-reopen LSN %d want %d (%v)", lsn, n+1, err)
			}
		})
	}
}

func TestLogSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncOS, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := uint64(0); i < n; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if rot := l.Stats().Rotations.Load(); rot == 0 {
		t.Fatal("no rotations at a 512-byte segment size")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Segments < 2 || info.Records != n {
		t.Fatalf("recovered %d segments / %d records", info.Segments, info.Records)
	}
	keys, _ := replayAll(t, l2, 0)
	if len(keys) != n {
		t.Fatalf("replayed %d want %d", len(keys), n)
	}
}

// TestLogTornTailTruncated appends a torn tail to the last segment and
// asserts Open drops exactly it, counting as torn only the bytes up to the
// last non-zero one: zeros after the frames are the unused part of a
// preallocated segment, not torn data.
func TestLogTornTailTruncated(t *testing.T) {
	frame := AppendFrame(nil, RecInsert, EncodeInsert(nil, 0x77, 0x99))
	zeros := make([]byte, 4096)
	for _, c := range []struct {
		name string
		tail []byte
		torn int64
	}{
		{"garbage", []byte{0xde, 0xad, 0xbe, 0xef, 0x01}, 5},
		// frame[9] is the key's low byte, the last non-zero one of the cut.
		{"torn frame then zeros", append(frame[:10:10], zeros...), 10},
		{"zeros", zeros, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := uint64(0); i < 10; i++ {
				if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, segName(1))
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(c.tail); err != nil {
				t.Fatal(err)
			}
			f.Close()

			l2, info, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			if info.TornBytes != c.torn {
				t.Fatalf("TornBytes %d want %d", info.TornBytes, c.torn)
			}
			if keys, _ := replayAll(t, l2, 0); len(keys) != 10 {
				t.Fatalf("replayed %d want 10", len(keys))
			}
		})
	}
}

// TestLogMidCorruptionFatal flips a byte in the middle of a sealed (non
// last) segment: that is not a torn tail and Open must refuse.
func TestLogMidCorruptionFatal(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	b[segHdrLen+frameHdrLen] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, segName(1)), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: %v", err)
	}
}

func TestLogGroupCommitConcurrent(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				k := uint64(w*per + i)
				if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, k, k)); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.DurableLSN() != workers*per {
		t.Fatalf("DurableLSN %d want %d", l.DurableLSN(), workers*per)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Records != workers*per {
		t.Fatalf("recovered %d records", info.Records)
	}
}

func TestCheckpointRoundTripAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 100; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	barrier := l.LastLSN()
	blob := []byte("adaptive state snapshot")
	if err := l.WriteCheckpoint(barrier, blob); err != nil {
		t.Fatal(err)
	}
	if l.Stats().SegmentsPruned.Load() == 0 {
		t.Fatal("checkpoint pruned no segments despite 256-byte segments")
	}
	for i := uint64(100); i < 110; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Barrier != barrier || !bytes.Equal(info.Checkpoint, blob) {
		t.Fatalf("recovered barrier %d blob %q", info.Barrier, info.Checkpoint)
	}
	keys, types := replayAll(t, l2, info.Barrier)
	if len(keys) != 10 || keys[0] != 100 {
		t.Fatalf("replayed tail %v", keys)
	}
	for _, typ := range types {
		if typ == RecCheckpoint && !RedoOptional(typ) {
			t.Fatal("RecCheckpoint must be redo-optional")
		}
	}
}

// TestCheckpointCorruptFallsBack bit-flips the newest checkpoint and
// asserts Open falls back to the full log (barrier 0).
func TestCheckpointCorruptFallsBack(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(20, []byte("snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckptName(20))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	_, info, err := Open(dir, Options{})
	if err == nil {
		// Pruning may have removed pre-barrier segments; recovery falls
		// back to whatever log survives, but must NOT trust the bad blob.
		if info.Checkpoint != nil {
			t.Fatal("corrupt checkpoint blob was accepted")
		}
		if info.BadCheckpoints != 1 {
			t.Fatalf("BadCheckpoints %d want 1", info.BadCheckpoints)
		}
	}
}

// TestBarrierBeyondTornTail exercises the LSN-jump path: a checkpoint
// whose barrier exceeds the surviving log tail (the unsynced tail died
// with the process) must still yield monotonic LSNs after reopen.
func TestBarrierBeyondTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(10, []byte("s")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the whole post-checkpoint segment tail being torn off:
	// truncate the active segment back to its header.
	var segs []string
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			segs = append(segs, e.Name())
		}
	}
	last := segs[len(segs)-1]
	if err := os.Truncate(filepath.Join(dir, last), segHdrLen); err != nil {
		t.Fatal(err)
	}

	l2, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if info.Barrier != 10 {
		t.Fatalf("barrier %d", info.Barrier)
	}
	lsn, err := l2.AppendCommit(RecInsert, EncodeInsert(nil, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= info.Barrier {
		t.Fatalf("post-recovery LSN %d not beyond barrier %d", lsn, info.Barrier)
	}
	if keys, _ := replayAll(t, l2, info.Barrier); len(keys) != 1 {
		t.Fatalf("replayed %d records want 1 (the new one)", len(keys))
	}
}

func TestRedoOptionalTypes(t *testing.T) {
	want := map[uint8]bool{
		RecNoop: false, RecInsert: false, RecDelete: false,
		RecBatch: false, RecAdapt: true, RecCheckpoint: true,
	}
	for typ, w := range want {
		if RedoOptional(typ) != w {
			t.Fatalf("RedoOptional(%d) != %v", typ, w)
		}
	}
}

func TestLogManyReopens(t *testing.T) {
	dir := t.TempDir()
	total := uint64(0)
	for round := 0; round < 5; round++ {
		l, info, err := Open(dir, Options{SegmentBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if uint64(info.Records) != total {
			t.Fatalf("round %d: recovered %d records want %d", round, info.Records, total)
		}
		for i := 0; i < 30; i++ {
			if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, total, total)); err != nil {
				t.Fatal(err)
			}
			total++
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenCleansTempFiles(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, ckptName(5)+".tmp")
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("temp file survived open: %v", err)
	}
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(RecNoop, nil); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// BenchmarkAppendCommit is a durable write's log cost under SyncInterval
// (the benchmark's write-wal policy): one 16-byte insert a commit, no
// fsync on the commit path.
func BenchmarkAppendCommit(b *testing.B) { benchAppendCommit(b, SyncInterval) }

func BenchmarkAppendCommitOS(b *testing.B) { benchAppendCommit(b, SyncOS) }

func benchAppendCommit(b *testing.B, policy SyncPolicy) {
	l, _, err := Open(b.TempDir(), Options{Policy: policy})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(payload[:0], uint64(i), uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleOpen() {
	dir, _ := os.MkdirTemp("", "wal")
	defer os.RemoveAll(dir)
	l, info, _ := Open(dir, Options{Policy: SyncAlways})
	_ = l.Replay(info.Barrier, func(lsn uint64, typ uint8, p []byte) error { return nil })
	lsn, _ := l.AppendCommit(RecInsert, EncodeInsert(nil, 1, 100))
	fmt.Println(lsn)
	l.Close()
	// Output: 1
}
