package wal

import (
	"math/rand"
	"os"
	"sync/atomic"
)

// Crash-point injection for the fault harness. Every durability-relevant
// syscall site in this package calls crashPoint (or copyMaybeTorn /
// writeMaybeTorn for data stores) with a site label. When armed — only ever in a harness
// child process — the N-th site visit kills the process abruptly with
// CrashExitCode, optionally after writing a torn prefix of the pending
// buffer, simulating a power cut mid-write. Unarmed, the cost is one
// atomic load per site.
//
// Sites, in the order a commit visits them:
//
//	seg-create    creating/rotating a segment file
//	pre-write     before the segment data store
//	mid-write     the data store itself (torn: a random prefix lands)
//	post-write    after write, before any fsync
//	pre-fsync     before the segment fsync
//	post-fsync    after the segment fsync (commit acked after this)
//	ckpt-write    writing the checkpoint temp file
//	ckpt-sync     fsyncing the checkpoint temp file
//	ckpt-rename   after renaming the checkpoint into place
//	ckpt-prune    while pruning obsolete segments/checkpoints

// CrashExitCode is the child's exit status at an injected crash, so the
// harness can tell injected kills from real failures.
const CrashExitCode = 86

var (
	crashArmed  atomic.Bool
	crashTarget atomic.Int64
	crashCount  atomic.Int64
	crashRNG    atomic.Pointer[rand.Rand]
	crashSite   atomic.Pointer[string]
)

// ArmCrash arms the injector: the target-th syscall site visited from now
// on crashes the process. seed drives the torn-write prefix length. Call
// only from a sacrificial child process.
func ArmCrash(target int64, seed int64) {
	crashCount.Store(0)
	crashTarget.Store(target)
	crashRNG.Store(rand.New(rand.NewSource(seed)))
	crashArmed.Store(true)
}

// DisarmCrash disables the injector (harness calibration runs).
func DisarmCrash() { crashArmed.Store(false) }

// CrashSites reports how many syscall sites have been visited since
// ArmCrash/DisarmCrash — the calibration run's site count bounds the
// harness's randomized crash targets.
func CrashSites() int64 { return crashCount.Load() }

// crashPoint registers one syscall site visit and crashes at the target.
func crashPoint(site string) {
	if !crashArmed.Load() {
		return
	}
	if crashCount.Add(1) == crashTarget.Load() {
		die(site)
	}
}

// writeMaybeTorn performs f.Write(b); at the injected target it writes
// only a random prefix — a torn write — and dies. Returns bytes written
// when not crashing.
func writeMaybeTorn(f *os.File, b []byte) (int, error) {
	if crashArmed.Load() && crashCount.Add(1) == crashTarget.Load() {
		if r := crashRNG.Load(); r != nil && len(b) > 0 {
			if n := r.Intn(len(b)); n > 0 {
				_, _ = f.Write(b[:n])
			}
		}
		die("mid-write")
	}
	return f.Write(b)
}

// copyMaybeTorn stores b into dst, the mapped segment; at the injected
// target it stores only a random prefix — a torn write — and dies.
func copyMaybeTorn(dst, b []byte) {
	if crashArmed.Load() && crashCount.Add(1) == crashTarget.Load() {
		if r := crashRNG.Load(); r != nil && len(b) > 0 {
			copy(dst, b[:r.Intn(len(b))])
		}
		die("mid-write")
	}
	copy(dst, b)
}

// die records the site (visible under test) and exits without running
// deferred cleanup — the closest a same-process harness gets to kill -9.
func die(site string) {
	s := site
	crashSite.Store(&s)
	os.Exit(CrashExitCode)
}
