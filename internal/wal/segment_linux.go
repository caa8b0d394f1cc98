//go:build linux

package wal

import (
	"errors"
	"fmt"
	"runtime/debug"
	"syscall"
)

// storeLocked copies b into the active segment's shared mapping, after
// its last frame. A store into a MAP_SHARED file mapping lands in the same
// page cache a write(2) fills, so the frames survive a process crash once
// the copy returns and fsync on the file writes them back — without a
// syscall per commit.
//
// A store the filesystem cannot back (EIO, or ENOSPC under a sparse file)
// raises SIGBUS; the copy runs with panic-on-fault set and that fault
// becomes the returned error, as a failed write(2) would.
func (l *Log) storeLocked(b []byte) (err error) {
	off := l.active.dataBytes
	end := off + int64(len(b))
	if l.mm == nil {
		// A segment is mapped by its first store, once. Later stores fit:
		// flushLocked rotates before one would pass SegmentBytes, so only a
		// fresh segment's first store can be larger, and the mapping is
		// sized to hold it.
		if err := l.mapLocked(max(end, l.opt.SegmentBytes)); err != nil {
			return err
		}
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			if _, fault := r.(interface{ Addr() uintptr }); !fault {
				panic(r)
			}
			err = fmt.Errorf("wal: segment %s store at offset %d faulted: %v", l.active.path, off, r)
		}
	}()
	copyMaybeTorn(l.mm[off:end], b)
	return nil
}

// mapLocked sizes the active segment's file to size bytes, blocks
// allocated, and maps it read/write and shared.
func (l *Log) mapLocked(size int64) error {
	fd := int(l.f.Fd())
	if err := syscall.Fallocate(fd, 0, 0, size); err != nil {
		if !errors.Is(err, syscall.EOPNOTSUPP) {
			return fmt.Errorf("wal: preallocating segment %s: %w", l.active.path, err)
		}
		// The filesystem has no fallocate: the file is sparse, and a store
		// that finds no space faults in storeLocked.
		if err := l.f.Truncate(size); err != nil {
			return err
		}
	}
	mm, err := syscall.Mmap(fd, 0, int(size), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("wal: mapping segment %s: %w", l.active.path, err)
	}
	l.mm = mm
	return nil
}

// releaseLocked unmaps the active segment and cuts its file back to its
// frames, dropping the preallocated tail. Callers fsync afterwards.
func (l *Log) releaseLocked() error {
	if l.mm != nil {
		err := syscall.Munmap(l.mm)
		l.mm = nil
		if err != nil {
			return fmt.Errorf("wal: unmapping segment %s: %w", l.active.path, err)
		}
	}
	return l.f.Truncate(l.active.dataBytes)
}
