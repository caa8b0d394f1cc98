// Package btree implements the paper's Hybrid B+-tree (§4.1): a B+-tree
// whose leaf nodes carry one of three encodings — Gapped (the traditional
// slotted layout), Packed (dense arrays), or Succinct (frame-of-reference
// plus bit packing) — and migrate between them at run-time under the
// adaptation manager of internal/core. Concurrency uses Optimistic Lock
// Coupling (Leis et al., §4.1.5).
package btree

import (
	"runtime"
	"sync/atomic"
)

// olcLock is the version lock of Optimistic Lock Coupling: a 64-bit word
// holding a version counter in the upper bits, a locked flag in bit 1 and
// an obsolete flag in bit 0. Writers bump the version on unlock. Tree
// readers take no version at all (see the concurrency note in btree.go);
// the one optimistic reader is MigrateLeaf, which snapshots a version with
// readLock, re-encodes, and publishes only if upgrade finds it unchanged.
type olcLock struct {
	v atomic.Uint64
}

const (
	lockBit     = uint64(0b10)
	obsoleteBit = uint64(0b01)
)

func isLocked(v uint64) bool   { return v&lockBit != 0 }
func isObsolete(v uint64) bool { return v&obsoleteBit != 0 }

// readLock returns a stable version snapshot, spinning while a writer
// holds the lock. ok is false when the node is obsolete.
func (l *olcLock) readLock() (version uint64, ok bool) {
	for {
		v := l.v.Load()
		if isLocked(v) {
			runtime.Gosched()
			continue
		}
		if isObsolete(v) {
			return 0, false
		}
		return v, true
	}
}

// upgrade atomically converts a read snapshot into a write lock.
func (l *olcLock) upgrade(version uint64) bool {
	return l.v.CompareAndSwap(version, version|lockBit)
}

// writeLock acquires the lock pessimistically (spins).
func (l *olcLock) writeLock() bool {
	for {
		v := l.v.Load()
		if isObsolete(v) {
			return false
		}
		if isLocked(v) {
			runtime.Gosched()
			continue
		}
		if l.v.CompareAndSwap(v, v|lockBit) {
			return true
		}
	}
}

// unlock releases a write lock, bumping the version.
func (l *olcLock) unlock() {
	l.v.Add(lockBit) // 0b10 + 0b10 carries into the version bits
}
