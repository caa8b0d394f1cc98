package wal

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// mappedExitCode is the status the child of TestMappedExitWithoutClose
// exits with, so the parent can tell its deliberate exit from a failure.
const mappedExitCode = 3

// TestMappedExitChild is the child half of TestMappedExitWithoutClose: it
// commits AHI_WAL_EXIT_N records and exits without closing the log.
func TestMappedExitChild(t *testing.T) {
	dir := os.Getenv("AHI_WAL_EXIT_DIR")
	if dir == "" {
		t.Skip("child of TestMappedExitWithoutClose")
	}
	n, err := strconv.Atoi(os.Getenv("AHI_WAL_EXIT_N"))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(dir, Options{Policy: SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < uint64(n); i++ {
		if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, i, i)); err != nil {
			t.Fatal(err)
		}
	}
	os.Exit(mappedExitCode)
}

// TestMappedExitWithoutClose: a process that dies after its commits
// returned leaves the active segment at its preallocated size, frames
// then zeros. Reopening must find every committed record and call none of
// the zero tail torn.
func TestMappedExitWithoutClose(t *testing.T) {
	const n = 1000
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestMappedExitChild$")
	cmd.Env = append(os.Environ(), "AHI_WAL_EXIT_DIR="+dir, "AHI_WAL_EXIT_N="+strconv.Itoa(n))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != mappedExitCode {
		t.Fatalf("child: %v\n%s", err, out)
	}
	seg := filepath.Join(dir, segName(1))
	frames := int64(segHdrLen + n*len(AppendFrame(nil, RecInsert, EncodeInsert(nil, 0, 0))))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() <= frames {
		t.Fatalf("segment is %d bytes for %d bytes of frames: not preallocated", fi.Size(), frames)
	}

	l, info, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if info.Records != n || info.TornBytes != 0 {
		t.Fatalf("recovered %d records, %d torn bytes; want %d, 0", info.Records, info.TornBytes, n)
	}
	if keys, _ := replayAll(t, l, 0); len(keys) != n {
		t.Fatalf("replayed %d records want %d", len(keys), n)
	}
	if fi, err = os.Stat(seg); err != nil {
		t.Fatal(err)
	}
	if fi.Size() != frames {
		t.Fatalf("reopened segment is %d bytes, its frames %d", fi.Size(), frames)
	}
}

// TestMappedStoreFault: a store into a page the file no longer backs
// raises SIGBUS. The commit must fail with the log's sticky error instead
// of killing the process, and the log must refuse work after it.
func TestMappedStoreFault(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{Policy: SyncOS})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendCommit(RecInsert, EncodeInsert(nil, 1, 1)); err != nil {
		t.Fatal(err)
	}
	// Shrink the mapped file behind the log's back: every mapped page is
	// now past the end of the file.
	if err := os.Truncate(filepath.Join(dir, segName(1)), 0); err != nil {
		t.Fatal(err)
	}
	_, err = l.AppendCommit(RecInsert, EncodeInsert(nil, 2, 2))
	if err == nil {
		t.Fatal("commit into a truncated segment succeeded")
	}
	if _, err2 := l.AppendCommit(RecInsert, EncodeInsert(nil, 3, 3)); err2 != err {
		t.Fatalf("after the fault: %v, want the sticky %v", err2, err)
	}
	if cerr := l.Close(); cerr == nil {
		t.Fatal("Close after a faulted store reported no error")
	}
}

// TestMappedSealedSizes: the active segment is preallocated, and sealing
// cuts it back, so after every rotation each sealed segment on disk is
// exactly its frames long. Every seventh record is larger than a whole
// segment, so its fresh segment's mapping has to grow.
func TestMappedSealedSizes(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 4096
	l, _, err := Open(dir, Options{Policy: SyncOS, SegmentBytes: segBytes})
	if err != nil {
		t.Fatal(err)
	}
	small, big := make([]byte, 300), make([]byte, 3*segBytes)
	records := 0
	for i := 0; l.Stats().Rotations.Load() < 8; i++ {
		rot := l.Stats().Rotations.Load()
		payload := small
		if i%7 == 6 {
			payload = big
		}
		if _, err := l.AppendCommit(RecNoop, payload); err != nil {
			t.Fatal(err)
		}
		records++
		l.mu.Lock()
		sealed, active := append([]segMeta(nil), l.sealed...), l.active
		l.mu.Unlock()
		fi, err := os.Stat(active.path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() < segBytes {
			t.Fatalf("commit %d: active segment is %d bytes, want preallocated to %d", i, fi.Size(), segBytes)
		}
		if l.Stats().Rotations.Load() == rot {
			continue
		}
		for _, m := range sealed {
			fi, err := os.Stat(m.path)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() != m.dataBytes {
				t.Fatalf("commit %d: sealed %s is %d bytes, its frames %d", i, m.path, fi.Size(), m.dataBytes)
			}
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
	if info.Records != records || info.TornBytes != 0 {
		t.Fatalf("recovered %d records, %d torn bytes; want %d, 0", info.Records, info.TornBytes, records)
	}
}
