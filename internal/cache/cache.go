// Package cache implements a lock-cheap hot-key result cache for the
// adaptive index read path.
//
// Layout: set-associative buckets (4–7 ways, sized to spend the configured
// byte budget — see New) in an immutable table published through an
// atomic pointer. Every slot field is atomic and guarded by a per-slot
// seqlock (ver odd = writer in the critical section), so readers never
// block and the package is clean under -race. Admission follows the
// S3-FIFO/CLOCK spirit: new entries enter on probation (freq 0), probe
// hits bump a saturating frequency, eviction picks the minimum-frequency
// way and ages the rest. Entries observed by the hotness sampler are
// admitted pre-warmed.
//
// Strictness: values enter only through Admit, which carries a stripe
// snapshot taken BEFORE the tree lookup that produced the value. A stripe
// word counts writes begun (high half) and writes in flight (low half).
// A tree write brackets its change to the leaf with BeginWrite, which
// bumps both halves and then clears any matching slot, and EndWrite,
// which drops the in-flight count. Admit refuses a snapshot that saw a write in flight
// and re-checks the stripe while holding the slot seqlock, aborting if it
// moved; the clear spins on (never skips) locked slots. Either the
// admitter's in-lock check sees the bump and aborts, or the admitter
// finished first and the clear waits on its lock and removes the entry —
// before the new value is in the tree. So once any reader can see a
// write's value, no older value of that key is in the cache, and none can
// enter while the write is in flight: reads are linearizable, not only
// fresh after the write returns. Invalidate is the one-shot form (bump
// and clear) for a write already applied elsewhere.
//
// Resizing: Resize publishes a fresh, empty table of the new size and
// leaves the old one to the garbage collector; no slot is ever cleared or
// re-indexed in place. Each operation loads the table once, so it works
// on one table throughout; the clear of BeginWrite and Invalidate loads
// it after its stripe bump. The stripes live outside the tables and
// survive a swap, so an Admit into any table still aborts on a write that
// bumped its stripe after the snapshot, and an admitter that passed its
// check before that bump loaded its table before the writer did: that
// table is the writer's (whose clear removes the entry) or an older one.
// An entry left in a superseded table is reachable only by a probe that
// loaded that table before the swap, and a write whose clear went to a
// newer table puts its value in the tree only after that swap — after
// the probe began — so the probe linearizes before the write. A probe
// that starts after the swap sees only the newer tables.
package cache

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// ways is the MINIMUM bucket associativity. A slot is 32 bytes, so a
	// 4-way bucket is two cache lines. The bucket count must be a power
	// of two (the index is a mask), which alone would strand up to half
	// the configured bytes; the constructor instead widens buckets up to
	// maxWays to spend the remainder, so a budget slice between powers of
	// two still buys capacity (associativity helps hit rate too).
	ways    = 4
	maxWays = 7
	// slotBytes is the accounted footprint of one slot.
	slotBytes = 32
	// stripeCount is the number of invalidation epochs. Writers bump one
	// stripe per key; admitters validate against it.
	stripeCount = 256
	// epochOne and inFlight are the two halves of a stripe word: the
	// count of writes begun (and migration fences) above, the count of
	// writes between BeginWrite and EndWrite below.
	epochOne = 1 << 32
	inFlight = epochOne - 1
	// maxMeta caps the CLOCK frequency at 3: meta = (freq<<1)|1.
	maxMeta = 7
	// minBytes is the smallest useful cache: below one bucket of slack
	// the constructor reports nil and the caller runs uncached.
	minBytes = 4 * ways * slotBytes
)

// slot is one cached (key, value) pair. ver is a seqlock: odd while a
// writer owns the slot; key/val/meta only change under an odd ver. meta
// is 0 when empty, otherwise (freq<<1)|1; frequency maintenance uses CAS
// outside the lock so it can never resurrect a concurrently-cleared slot.
type slot struct {
	ver  atomic.Uint64
	key  atomic.Uint64
	val  atomic.Uint64
	meta atomic.Uint64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits          int64
	Misses        int64
	Admitted      int64
	Rejected      int64 // admissions aborted by a stripe epoch move or lock contention
	Invalidations int64 // write-path slot clears (entry was present)
	Evictions     int64 // occupied slots overwritten by admission
}

// table is one immutable slot layout: the slots of mask+1 buckets. Only
// the slot contents change after construction; a resize publishes a new
// table instead.
type table struct {
	slots []slot
	mask  uint64 // bucket count - 1 (power of two)
}

func newTable(buckets, ways uint64) *table {
	return &table{slots: make([]slot, buckets*ways), mask: buckets - 1}
}

// Cache is a per-tree (per-shard) result cache. Its slot table is swapped
// whole by Resize, so the accounted footprint follows budget rebalancing
// in both directions.
type Cache struct {
	tab     atomic.Pointer[table]
	ways    uint64 // bucket associativity, fixed at construction
	stripes [stripeCount]atomic.Uint64

	hits     atomic.Int64
	misses   atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	invals   atomic.Int64
	evicts   atomic.Int64

	resizeMu sync.Mutex
}

// New builds a cache fitting in bytes: the largest power-of-two bucket
// count at minimum associativity, then buckets widened (up to maxWays
// slots each) to spend what the power-of-two rounding would strand.
// Returns nil when bytes is too small to be useful — callers treat a nil
// *Cache as "disabled".
func New(bytes int64) *Cache {
	if bytes < minBytes {
		return nil
	}
	buckets := pow2Floor(uint64(bytes) / (ways * slotBytes))
	w := uint64(bytes) / (buckets * slotBytes)
	if w > maxWays {
		w = maxWays
	}
	c := &Cache{ways: w}
	c.tab.Store(newTable(buckets, w))
	return c
}

func pow2Floor(n uint64) uint64 {
	p := uint64(1)
	for p<<1 <= n {
		p <<= 1
	}
	return p
}

// mix is splitmix64's finalizer: full-avalanche so bucket bits (low) and
// stripe bits (high) are independent.
func mix(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// StripeOf reports which invalidation stripe covers key k. Exported so
// callers batching invalidations (leaf migration) can dedup stripes.
func StripeOf(k uint64) uint64 { return mix(k) >> 56 }

// Snap returns the current invalidation epoch for k's stripe. Callers
// take it BEFORE the authoritative tree lookup and pass it to Admit.
func (c *Cache) Snap(k uint64) uint64 {
	return c.stripes[mix(k)>>56].Load()
}

// Probe looks k up. A hit is always the value of a tree read linearized
// no earlier than the last write of k any reader could see (writers clear
// k's slots before publishing a new value; see BeginWrite).
func (c *Cache) Probe(k uint64) (uint64, bool) {
	v, _, _, ok := c.probe(mix(k), k, false)
	c.count(ok)
	return v, ok
}

// ProbeOrSnap combines Probe with the miss-path stripe snapshot: one hash
// and one stripe-line touch instead of two. On a hit snap is meaningless;
// on a miss it is the invalidation epoch to pass to Admit.
func (c *Cache) ProbeOrSnap(k uint64) (v, snap uint64, ok bool) {
	v, snap, _, ok = c.probe(mix(k), k, true)
	c.count(ok)
	return v, snap, ok
}

// ProbeOrSnapUncounted is ProbeOrSnap without touching the shared hit and
// miss counters: a batch caller tallies its outcomes in locals and reports
// them once with AddProbes, so its probes write no line other callers read.
func (c *Cache) ProbeOrSnapUncounted(k uint64) (v, snap uint64, ok bool) {
	v, snap, _, ok = c.probe(mix(k), k, true)
	return v, snap, ok
}

// AddProbes credits the outcomes of uncounted probes to the counters.
func (c *Cache) AddProbes(hits, misses int64) {
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

// ProbeOrSnapProf is ProbeOrSnap plus the probe's torn-slot count: how
// many ways the seqlock observed mid-write (version odd, or changed
// between the reads). The flight recorder tags ops whose probe raced
// concurrent cache writers with it.
func (c *Cache) ProbeOrSnapProf(k uint64) (v, snap uint64, torn int32, ok bool) {
	v, snap, torn, ok = c.probe(mix(k), k, true)
	c.count(ok)
	return v, snap, torn, ok
}

func (c *Cache) count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

func (c *Cache) probe(h, k uint64, wantSnap bool) (v, snap uint64, torn int32, ok bool) {
	t := c.tab.Load()
	base := (h & t.mask) * c.ways
	for i := uint64(0); i < c.ways; i++ {
		sl := &t.slots[base+i]
		v1 := sl.ver.Load()
		key := sl.key.Load()
		if v1&1 != 0 {
			torn++
			continue
		}
		if key != k {
			continue
		}
		m := sl.meta.Load()
		val := sl.val.Load()
		if sl.ver.Load() != v1 {
			torn++
			continue // torn: treat as miss, the tree is authoritative
		}
		if m&1 == 0 {
			continue // empty way
		}
		if m < maxMeta {
			sl.meta.CompareAndSwap(m, m+2) // best-effort frequency bump
		}
		return val, 0, torn, true
	}
	if wantSnap {
		snap = c.stripes[h>>56].Load()
	}
	return 0, snap, torn, false
}

// Admit publishes (k, v) obtained from a tree lookup that began after
// stripe snapshot snap. hot marks entries the hotness sampler observed:
// they enter with frequency 2 instead of on probation. evictOK is the
// caller's admission-doorkeeper verdict: refreshing k's own slot or
// filling an empty way is always allowed (an invalidated hot key re-enters
// on its first post-write miss), but displacing a live entry needs hot or
// evictOK — under a skewed workload most misses are tail singletons not
// worth an eviction. Admission is best-effort: contention or a concurrent
// write of k drops it.
func (c *Cache) Admit(k, v uint64, snap uint64, hot, evictOK bool) {
	h := mix(k)
	stripe := &c.stripes[h>>56]
	if snap&inFlight != 0 || stripe.Load() != snap {
		c.rejected.Add(1)
		return
	}
	t := c.tab.Load()
	base := (h & t.mask) * c.ways
	// Victim choice: k's own slot if cached, else an empty way, else the
	// minimum-frequency way (CLOCK).
	var victim *slot
	ownerK := false
	minMeta := uint64(maxMeta + 2)
	for i := uint64(0); i < c.ways; i++ {
		sl := &t.slots[base+i]
		m := sl.meta.Load()
		if m&1 == 0 {
			if minMeta != 0 {
				victim, minMeta = sl, 0
			}
			continue
		}
		if sl.key.Load() == k {
			victim, minMeta, ownerK = sl, m, true
			break
		}
		if m < minMeta {
			victim, minMeta = sl, m
		}
	}
	if minMeta != 0 && !ownerK {
		if !hot && !evictOK {
			c.rejected.Add(1)
			return
		}
		// A real eviction. When even the victim has earned hits (no
		// probationary way left), age every resident by one (CLOCK): the
		// bucket is all-established and must decay to stay adaptive.
		// While probationary entries remain they absorb the churn and
		// established entries keep their earned frequency.
		if minMeta > 1 {
			for i := uint64(0); i < c.ways; i++ {
				sl := &t.slots[base+i]
				if sl == victim {
					continue
				}
				if m := sl.meta.Load(); m > 1 {
					sl.meta.CompareAndSwap(m, m-2)
				}
			}
		}
	}
	v0 := victim.ver.Load()
	if v0&1 != 0 || !victim.ver.CompareAndSwap(v0, v0+1) {
		c.rejected.Add(1) // writer or another admitter owns the slot
		return
	}
	// Re-check the stripe under the lock: a concurrent writer that bumped
	// it after our pre-check is now obligated to scan this bucket and
	// will spin on our odd ver — unless we abort here, which covers the
	// case where the bump happened before we took the lock.
	if stripe.Load() != snap {
		victim.ver.Store(v0 + 2)
		c.rejected.Add(1)
		return
	}
	if victim.meta.Load()&1 == 1 && victim.key.Load() != k {
		c.evicts.Add(1)
	}
	victim.key.Store(k)
	victim.val.Store(v)
	if hot {
		victim.meta.Store(2<<1 | 1)
	} else {
		victim.meta.Store(0<<1 | 1)
	}
	victim.ver.Store(v0 + 2)
	c.admitted.Add(1)
}

// BeginWrite opens a tree write of k: it marks k's stripe in flight —
// aborting in-flight admissions and refusing new ones — then clears k's
// slots. Call it before the write becomes visible to readers and
// EndWrite after.
func (c *Cache) BeginWrite(k uint64) {
	h := mix(k)
	c.stripes[h>>56].Add(epochOne | 1)
	c.clear(h, k)
}

// EndWrite closes a BeginWrite of k: admissions snapshotting k's stripe
// from now on read the written value.
func (c *Cache) EndWrite(k uint64) {
	c.stripes[mix(k)>>56].Add(^uint64(0))
}

// Invalidate removes k after a tree write (overwrite, delete, rekey).
// It bumps k's stripe epoch first — aborting in-flight admissions — then
// clears matching slots. A reader that saw the written value before
// Invalidate ran may still hit the older one until it returns; the tree
// write paths use BeginWrite/EndWrite instead.
func (c *Cache) Invalidate(k uint64) {
	h := mix(k)
	c.stripes[h>>56].Add(epochOne)
	c.clear(h, k)
}

// clear removes k's slots after its stripe bump, spinning on locked ones
// so a racing admission that already passed its epoch check cannot leave
// a stale entry behind.
func (c *Cache) clear(h, k uint64) {
	// Load the table after the bump: an admitter into any table published
	// before this load re-checks the stripe under its slot lock.
	t := c.tab.Load()
	base := (h & t.mask) * c.ways
	for i := uint64(0); i < c.ways; i++ {
		sl := &t.slots[base+i]
		for {
			v0 := sl.ver.Load()
			if v0&1 != 0 {
				runtime.Gosched() // writer in critical section: wait, never skip
				continue
			}
			if sl.key.Load() != k || sl.meta.Load()&1 == 0 {
				// Not our key. An admitter writing k right now holds the
				// lock (caught above); one starting later re-checks the
				// stripe we already bumped and aborts.
				break
			}
			if !sl.ver.CompareAndSwap(v0, v0+1) {
				continue
			}
			if sl.key.Load() == k && sl.meta.Load()&1 == 1 {
				sl.meta.Store(0)
				c.invals.Add(1)
			}
			sl.ver.Store(v0 + 2)
			break
		}
	}
}

// BumpStripes publishes an invalidation epoch for every stripe set in
// mask (a 256-bit set indexed by StripeOf). Leaf migrations use it to
// fence in-flight admissions against the displaced leaf image without
// walking individual slots: cached values stay correct (migration does
// not change the key→value mapping), only pending admissions abort.
func (c *Cache) BumpStripes(mask *[4]uint64) {
	for w := 0; w < 4; w++ {
		set := mask[w]
		for set != 0 {
			c.stripes[w*64+bits.TrailingZeros64(set)].Add(epochOne)
			set &= set - 1
		}
	}
}

// Resize re-targets the footprint to bytes: when the bucket count
// changes, growing or shrinking, it publishes a fresh, empty table of that
// size and drops the old one to the garbage collector (see the package
// comment for why entries left in it cannot be read stale). Rebalance
// cadence is far coarser than cache refill, so the lost working set is
// cheap; the associativity stays as constructed.
func (c *Cache) Resize(bytes int64) {
	c.resizeMu.Lock()
	defer c.resizeMu.Unlock()
	buckets := uint64(1)
	if bytes >= minBytes {
		buckets = pow2Floor(uint64(bytes) / (c.ways * slotBytes))
	}
	if buckets-1 != c.tab.Load().mask {
		c.tab.Store(newTable(buckets, c.ways))
	}
}

// Bytes reports the accounted footprint — what the adaptation manager
// charges against the memory budget.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(len(c.tab.Load().slots) * slotBytes)
}

// Len counts occupied slots (diagnostic; O(slots)).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	t := c.tab.Load()
	for i := range t.slots {
		if t.slots[i].meta.Load()&1 == 1 {
			n++
		}
	}
	return n
}

// Stats snapshots the counters. Safe on a nil cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Admitted:      c.admitted.Load(),
		Rejected:      c.rejected.Load(),
		Invalidations: c.invals.Load(),
		Evictions:     c.evicts.Load(),
	}
}
