package btree

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ahi/internal/obs"
)

// This file implements epoch-based reclamation for retired leaf images.
//
// Before it, MigrateLeaf re-encoded the payload while holding the leaf's
// write lock: the lock was the only thing preventing a migration from
// publishing a new image while readers still probed the old one, so the
// whole O(decode+encode) build sat inside the rekey protocol's blocking
// window. With epochs the migrator builds the new image outside the lock
// (optimistically, re-validating the box pointer under the lock before
// the O(1) swap) and the displaced image goes onto a grace-period retire
// list instead of being dropped to the garbage collector.
//
// The protocol: readers stamp the global epoch into a per-reader slot on
// entry (pin) and clear it on exit (unpin); a migrator retiring an image
// first publishes the replacement, then advances the global epoch and
// tags the retired image with the new value. An image may be recycled
// once every active reader's stamp is >= its tag: with sequentially
// consistent atomics, a reader that could still observe the old image
// must have loaded the epoch before the migrator advanced it, so its
// stamp is smaller and blocks reclamation (see reclaim). Readers never
// write shared state beyond their own slot, so the serve path cost is
// one slot claim and two plain stores.
//
// Reclamation feeds the Gapped slab pool (payload.go): a retired Gapped
// image's key/value arrays are handed back to allocGapped once no reader
// can touch them, so steady-state migration churn stops allocating 4 KiB
// payloads. Packed and Succinct images have irregular sizes, and a Gapped
// image built by an overwrite shares its keys with its predecessor; those
// simply fall to the garbage collector when the retire list drops them.
//
// The epochs pointer is nil unless the tree runs asynchronous migrations
// (wireAdaptive sets it): single-threaded trees and static baselines pay
// nothing, and their displaced images keep going straight to the GC.

// epochSlots bounds concurrent pinned readers. 64 cache-line-sized slots
// cost 4 KiB per tree; a reader finding all slots busy spins, so the
// bound throttles extreme fan-in instead of breaking it.
const epochSlots = 64

// reclaimThreshold is the retire-list depth that triggers a reclamation
// sweep. Amortizes the slot scan over a batch of retired images.
const reclaimThreshold = 64

// readerSlot is one padded reader-epoch slot: 0 when free, otherwise
// (epoch<<1)|1. The padding keeps concurrent pins off shared lines.
type readerSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// retiredBox tags a displaced leaf image with the epoch after which no
// new reader can reach it.
type retiredBox struct {
	box   *leafBox
	epoch uint64
}

// epochs is one tree's reclamation domain.
type epochs struct {
	global atomic.Uint64
	hint   atomic.Uint32 // rotating start index for slot claims
	slots  [epochSlots]readerSlot

	mu      sync.Mutex
	retired []retiredBox

	retiredTotal   atomic.Int64
	reclaimedTotal atomic.Int64
	recycledTotal  atomic.Int64
}

func newEpochs() *epochs {
	return &epochs{retired: make([]retiredBox, 0, reclaimThreshold*2)}
}

// pin claims a reader slot stamped with the current global epoch. Safe on
// a nil receiver (reclamation disabled): returns nil, and unpin(nil) is a
// no-op — read paths call pin/unpin unconditionally. ev, when non-nil,
// counts in PinSpins each full-table scan that found every slot busy.
func (e *epochs) pin(ev *obs.OpEvent) *readerSlot {
	if e == nil {
		return nil
	}
	g := e.global.Load()
	start := int(e.hint.Add(1))
	for {
		for i := 0; i < epochSlots; i++ {
			s := &e.slots[(start+i)&(epochSlots-1)]
			if s.v.Load() == 0 && s.v.CompareAndSwap(0, g<<1|1) {
				return s
			}
		}
		// All slots busy: yield and retry with a fresh stamp (a stale
		// stamp would be safe — it only delays reclamation — but the
		// reload keeps the lag honest while we wait).
		if ev != nil {
			ev.PinSpins++
		}
		runtime.Gosched()
		g = e.global.Load()
	}
}

// unpin releases a slot claimed by pin.
func (e *epochs) unpin(s *readerSlot) {
	if s != nil {
		s.v.Store(0)
	}
}

// retire parks a displaced leaf image until its grace period passes. The
// caller must already have published the replacement image (the epoch
// advance below must happen after the swap, or a reader could stamp a
// too-new epoch and still load the old image). On a nil receiver the
// image simply falls to the garbage collector.
func (e *epochs) retire(b *leafBox) {
	if e == nil {
		return
	}
	ep := e.global.Add(1)
	e.retiredTotal.Add(1)
	e.mu.Lock()
	e.retired = append(e.retired, retiredBox{box: b, epoch: ep})
	n := len(e.retired)
	e.mu.Unlock()
	if n >= reclaimThreshold {
		e.reclaim()
	}
}

// minActive returns the smallest epoch stamped by an active reader, and
// whether any reader is active.
func (e *epochs) minActive() (uint64, bool) {
	min := uint64(math.MaxUint64)
	any := false
	for i := range e.slots {
		if v := e.slots[i].v.Load(); v&1 == 1 {
			if ep := v >> 1; ep < min {
				min = ep
			}
			any = true
		}
	}
	return min, any
}

// reclaim frees every retired image whose grace period has passed: an
// image tagged ep is unreachable for all readers stamped >= ep, so it
// may go once min(active stamps) >= ep (or no reader is pinned at all).
// Gapped payload buffers are recycled into the slab pool.
func (e *epochs) reclaim() {
	min, any := e.minActive()
	e.mu.Lock()
	kept := e.retired[:0]
	freed := 0
	for _, r := range e.retired {
		if any && r.epoch > min {
			kept = append(kept, r)
			continue
		}
		if recyclePayload(r.box.p) {
			e.recycledTotal.Add(1)
		}
		freed++
	}
	// Clear the tail so dropped boxes do not linger in the backing array.
	tail := e.retired[len(kept):]
	for i := range tail {
		tail[i] = retiredBox{}
	}
	e.retired = kept
	e.mu.Unlock()
	e.reclaimedTotal.Add(int64(freed))
}

// stats reports the retire-list depth and the epoch lag of the oldest
// pinned reader behind the global epoch (0 with no active readers).
func (e *epochs) stats() (depth, lag int64) {
	if e == nil {
		return 0, 0
	}
	e.mu.Lock()
	depth = int64(len(e.retired))
	e.mu.Unlock()
	if min, any := e.minActive(); any {
		lag = int64(e.global.Load() - min)
	}
	return depth, lag
}
