// Package cache implements a lock-cheap hot-key result cache for the
// adaptive index read path.
//
// Layout: a table of 64-byte buckets, each on a cache line of its own,
// sized once by New. A bucket is one seqlock word, one meta word and three
// ways of (key, value); the meta word holds three bits a way, an occupied
// bit and a 2-bit CLOCK frequency. A probe, an admission and a write's
// hold of its key's way each touch that one line. Every bucket word is
// atomic and the bucket's seqlock (ver odd = a writer in the
// critical section) guards its keys, values and occupied bits, so readers
// never block and the package is clean under -race. Admission follows the
// S3-FIFO/CLOCK spirit: new entries enter on probation (freq 0), probe
// hits bump a saturating frequency, eviction picks the minimum-frequency
// way and ages the rest. Entries observed by the hotness sampler are
// admitted pre-warmed. New explains the sizing and the bucket index.
//
// Strictness: values enter only through Admit, which carries a stripe
// snapshot taken BEFORE the tree lookup that produced the value. A stripe
// word counts writes begun (high half) and writes in flight (low half).
// A tree write brackets its change to the leaf with BeginWrite, which
// bumps both halves and, when k is cached, locks k's bucket and returns
// the way it holds, and EndWrite, which drops the in-flight count. A
// single-key overwrite publishes its value in the tree and then hands it
// to Update, which stores it into the held way (keeping the way's CLOCK
// frequency) and releases the bucket; every other write (a delete, a
// merged multi-key run) drops the way at once with Drop, so a bracket
// never holds two buckets. Admit refuses a snapshot that saw a write in
// flight and re-checks the stripe while holding the bucket seqlock,
// aborting if it moved; BeginWrite spins on (never skips) a locked
// bucket. Either the admitter's in-lock check sees the bump and aborts,
// or the admitter finished first and BeginWrite waits on its lock and
// then holds or drops the entry — before the new value is in the tree.
// While a way is held its bucket's version is odd, so probes miss and
// read the tree, and the next writer of k waits for the release. So once
// any reader can see a write's value, no older value of that key is in
// the cache, no cached value is newer than the tree's, and nothing can
// enter while the write is in flight: reads are linearizable, not only
// fresh after the write returns. Invalidate is the one-shot form (bump
// and clear) for a write already applied elsewhere. Admissions choose
// their way under the version they lock with, so a key holds at most one
// way of its bucket.
package cache

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"unsafe"
)

const (
	// bucketWays is the bucket associativity: a seqlock word, a meta word
	// and three (key, value) pairs fill one 64-byte line.
	bucketWays = 3
	// lineBytes is the footprint and the alignment of one bucket.
	lineBytes = 64
	// stripeCount is the number of invalidation epochs. Writers bump one
	// stripe per key; admitters validate against it.
	stripeCount = 256
	// epochOne and inFlight are the two halves of a stripe word: the
	// count of writes begun (and migration fences) above, the count of
	// writes between BeginWrite and EndWrite below.
	epochOne = 1 << 32
	inFlight = epochOne - 1
	// A way's three meta bits are (freq<<1)|occupied; maxMeta is an
	// occupied way at the CLOCK frequency cap of 3.
	maxMeta = 7
	// occupiedBits selects the occupied bit of every way.
	occupiedBits = 1 | 1<<3 | 1<<6
	// minBytes is the smallest useful cache, eight buckets: below it the
	// constructor reports nil and the caller runs uncached.
	minBytes = 8 * lineBytes
)

// bucket is one cache line of the table. ver is a seqlock: odd while a
// writer owns the bucket; keys, vals and the occupied bits of meta only
// change under an odd ver. meta holds way i's bits at 3i: 0 when empty,
// otherwise (freq<<1)|1. A probe hit bumps its way's frequency with a CAS
// of the whole meta word outside the lock, which fails if any way changed
// since the probe read it, so it can never resurrect a cleared way.
type bucket struct {
	ver  atomic.Uint64
	meta atomic.Uint64
	keys [bucketWays]atomic.Uint64
	vals [bucketWays]atomic.Uint64
}

// wayMeta returns way i's three meta bits.
func wayMeta(meta uint64, i int) uint64 { return meta >> (3 * i) & maxMeta }

// Stats is a point-in-time counter snapshot. Invalidations counts the
// writes that found their key cached, whether they then dropped the entry
// or kept it; Updated counts the writes among them that kept it with the
// new value (an overwrite through Update; a way still held counts), so
// Invalidations - Updated is the entries writes removed.
type Stats struct {
	Hits          int64
	Misses        int64
	Admitted      int64
	Rejected      int64 // admissions aborted by a stripe epoch move or lock contention
	Invalidations int64 // writes that found their key cached
	Updated       int64 // writes that kept their entry with the new value
	Evictions     int64 // occupied ways overwritten by admission
}

// alignedBuckets allocates n zeroed buckets starting on a line boundary.
// The allocation carries one spare bucket, so the aligned window fits
// whatever address the allocator returns.
func alignedBuckets(n uint64) []bucket {
	raw := make([]bucket, n+1)
	pad := -uintptr(unsafe.Pointer(&raw[0])) & (lineBytes - 1)
	first := (*bucket)(unsafe.Add(unsafe.Pointer(&raw[0]), pad))
	return unsafe.Slice(first, n)
}

// Cache is the result cache of one index: a plain tree's, or the one every
// shard of a sharded front shares (their keys are disjoint).
type Cache struct {
	buckets []bucket // line-aligned; the count is fixed at construction
	stripes [stripeCount]atomic.Uint64

	hits     atomic.Int64
	misses   atomic.Int64
	admitted atomic.Int64
	rejected atomic.Int64
	invals   atomic.Int64 // writes that held their key's way (lock)
	dropped  atomic.Int64 // held ways cleared (Drop)
	evicts   atomic.Int64
}

// New builds a cache fitting in bytes: the budget's 64-byte lines rounded
// down to three significant bits, lead·2^k buckets with the lead in
// [4, 8). That spends all but at most a quarter of the budget, where a
// power-of-two count could strand half. Returns nil when bytes is too
// small to be useful — callers treat a nil *Cache as "disabled".
func New(bytes int64) *Cache {
	if bytes < minBytes {
		return nil
	}
	lines := uint64(bytes) / lineBytes
	shift := bits.Len64(lines) - 3
	return &Cache{buckets: alignedBuckets(lines >> shift << shift)}
}

// bucket maps a hash to its bucket by a multiply-shift of the hash's low
// 32 bits, so the count need not be a power of two and the index stays
// independent of the stripe (the high 8 bits).
func (c *Cache) bucket(h uint64) *bucket {
	return &c.buckets[uint64(uint32(h))*uint64(len(c.buckets))>>32]
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
// no earlier than the last write of k any reader could see (writers hold
// or clear k's way before publishing a new value; see BeginWrite).
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

// Touch loads the bucket of every key in keys and returns the sum of
// their seqlock words. A batch calls it before its probe loop: the loads
// are independent, so their misses overlap instead of each probe waiting
// on its own line. The caller keeps the sum in its own scratch, so the
// loads stay live and no two callers write one word.
func (c *Cache) Touch(keys []uint64) uint64 {
	var sum uint64
	for _, k := range keys {
		sum += c.bucket(mix(k)).ver.Load()
	}
	return sum
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

// ProbeOrSnapProf is ProbeOrSnap plus whether the probe's bucket was torn:
// 1 when the seqlock observed it mid-write (version odd, or changed
// between the reads), else 0. The flight recorder tags ops whose probe
// raced a concurrent cache writer with it.
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
	b := c.bucket(h)
	if v1 := b.ver.Load(); v1&1 != 0 {
		torn = 1
	} else {
		meta := b.meta.Load()
		for i := 0; i < bucketWays; i++ {
			m := wayMeta(meta, i)
			if b.keys[i].Load() != k || m == 0 {
				continue
			}
			val := b.vals[i].Load()
			if b.ver.Load() != v1 {
				torn = 1 // treat as a miss: the tree is authoritative
				break
			}
			if m < maxMeta {
				b.meta.CompareAndSwap(meta, meta+2<<(3*i)) // best-effort frequency bump
			}
			return val, 0, 0, true
		}
	}
	if wantSnap {
		snap = c.stripes[h>>56].Load()
	}
	return 0, snap, torn, false
}

// Admit publishes (k, v) obtained from a tree lookup that began after
// stripe snapshot snap. hot marks entries the hotness sampler observed:
// they enter with frequency 2 instead of on probation. evictOK is the
// caller's admission-doorkeeper verdict: refreshing k's own way or
// filling an empty way is always allowed (a hot key a delete or a merged
// run dropped re-enters on its first post-write miss), but displacing a
// live entry needs hot or evictOK — under a skewed workload most misses
// are tail singletons not worth an eviction. Admission is best-effort:
// contention or a concurrent write of k drops it.
func (c *Cache) Admit(k, v uint64, snap uint64, hot, evictOK bool) {
	h := mix(k)
	stripe := &c.stripes[h>>56]
	if snap&inFlight != 0 || stripe.Load() != snap {
		c.rejected.Add(1)
		return
	}
	b := c.bucket(h)
	v0 := b.ver.Load()
	if v0&1 != 0 {
		c.rejected.Add(1) // a writer or another admitter owns the bucket
		return
	}
	// Victim choice: k's own way if cached, else an empty way, else the
	// minimum-frequency way (CLOCK). Locking with v0 below validates it.
	meta := b.meta.Load()
	victim, vm, own := 0, uint64(maxMeta+1), false
	for i := 0; i < bucketWays; i++ {
		m := wayMeta(meta, i)
		if m == 0 {
			if vm != 0 {
				victim, vm = i, 0
			}
			continue
		}
		if b.keys[i].Load() == k {
			victim, vm, own = i, m, true
			break
		}
		if m < vm {
			victim, vm = i, m
		}
	}
	evict := vm != 0 && !own
	if evict && !hot && !evictOK {
		c.rejected.Add(1)
		return
	}
	if !b.ver.CompareAndSwap(v0, v0+1) {
		c.rejected.Add(1) // the bucket changed since the reads above
		return
	}
	// Re-check the stripe under the lock: a concurrent writer that bumped
	// it after our pre-check is now obligated to clear this bucket and
	// will spin on our odd ver — unless we abort here, which covers the
	// case where the bump happened before we took the lock.
	if stripe.Load() != snap {
		b.ver.Store(v0 + 2)
		c.rejected.Add(1)
		return
	}
	// Reload meta: probe hits may have bumped frequencies since it was
	// read (they CAS without the lock); the occupied bits cannot move.
	meta = b.meta.Load()
	if evict {
		// A real eviction. When even the victim has earned hits (no
		// probationary way left), age every other resident by one
		// (CLOCK): the bucket is all-established and must decay to stay
		// adaptive. While a probationary way remains it absorbs the churn
		// and established entries keep their earned frequency.
		if vm > 1 {
			for i := 0; i < bucketWays; i++ {
				if i != victim && wayMeta(meta, i) > 1 {
					meta -= 2 << (3 * i)
				}
			}
		}
		c.evicts.Add(1)
	}
	b.keys[victim].Store(k)
	b.vals[victim].Store(v)
	m := uint64(0<<1 | 1)
	if hot {
		m = 2<<1 | 1
	}
	b.meta.Store(meta&^(maxMeta<<(3*victim)) | m<<(3*victim))
	b.ver.Store(v0 + 2)
	c.admitted.Add(1)
}

// Held is the way a write holds locked from BeginWrite until Update or
// Drop releases it; the zero Held holds nothing (k was not cached).
type Held struct {
	b   *bucket
	way int
	ver uint64 // the bucket's even version before the lock
}

// BeginWrite opens a tree write of k: it marks k's stripe in flight —
// aborting in-flight admissions and refusing new ones — and, when k is
// cached, locks its bucket and returns the way it holds. Call it before
// the write becomes visible to readers, release the way with Update (a
// single-key overwrite, after the new value is visible) or Drop, and call
// EndWrite last. A caller holds at most one way at a time: two writers
// locking buckets in different orders would deadlock.
func (c *Cache) BeginWrite(k uint64) Held {
	h := mix(k)
	c.stripes[h>>56].Add(epochOne | 1)
	return c.lock(h, k)
}

// Update stores v into the held way and releases its bucket, keeping the
// way's CLOCK frequency. The caller has already published v in the tree.
// A no-op on the zero Held, also on a nil cache.
func (c *Cache) Update(h Held, v uint64) {
	if h.b == nil {
		return
	}
	h.b.vals[h.way].Store(v)
	h.b.ver.Store(h.ver + 2)
}

// Drop clears the held way and releases its bucket. A no-op on the zero
// Held, also on a nil cache.
func (c *Cache) Drop(h Held) {
	if h.b == nil {
		return
	}
	h.b.meta.Store(h.b.meta.Load() &^ (maxMeta << (3 * h.way)))
	h.b.ver.Store(h.ver + 2)
	c.dropped.Add(1)
}

// EndWrite closes a BeginWrite of k: admissions snapshotting k's stripe
// from now on read the written value.
func (c *Cache) EndWrite(k uint64) {
	c.stripes[mix(k)>>56].Add(^uint64(0))
}

// Invalidate removes k after a tree write (overwrite, delete, rekey).
// It bumps k's stripe epoch first — aborting in-flight admissions — then
// clears k's way. A reader that saw the written value before Invalidate
// ran may still hit the older one until it returns; the tree write paths
// use BeginWrite/EndWrite instead.
func (c *Cache) Invalidate(k uint64) {
	h := mix(k)
	c.stripes[h>>56].Add(epochOne)
	c.Drop(c.lock(h, k))
}

// lock finds k's way after its stripe bump and locks its bucket, spinning
// on a locked bucket so a racing admission that already passed its epoch
// check cannot leave a stale entry behind, and a write holding the way
// finishes first.
func (c *Cache) lock(h, k uint64) Held {
	b := c.bucket(h)
	for {
		v0 := b.ver.Load()
		if v0&1 != 0 {
			runtime.Gosched() // writer in critical section: wait, never skip
			continue
		}
		meta := b.meta.Load()
		i := 0
		for i < bucketWays && (wayMeta(meta, i) == 0 || b.keys[i].Load() != k) {
			i++
		}
		if i == bucketWays {
			// Not cached. An admitter of k that finished before v0 was
			// read left its entry visible above; one that locks later
			// re-checks the stripe we already bumped and aborts.
			return Held{}
		}
		if !b.ver.CompareAndSwap(v0, v0+1) {
			continue
		}
		c.invals.Add(1)
		return Held{b: b, way: i, ver: v0}
	}
}

// BumpStripes publishes an invalidation epoch for every stripe set in
// mask (a 256-bit set indexed by StripeOf). Leaf migrations use it to
// fence in-flight admissions against the displaced leaf image without
// walking individual buckets: cached values stay correct (migration does
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

// Bytes reports the accounted footprint — what the adaptation manager
// charges against the memory budget.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	return int64(len(c.buckets) * lineBytes)
}

// Len counts occupied ways (diagnostic; O(buckets)).
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.buckets {
		n += bits.OnesCount64(c.buckets[i].meta.Load() & occupiedBits)
	}
	return n
}

// Stats snapshots the counters. Safe on a nil cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	// Every held way is released by Update or Drop, so the updates are
	// the holds less the drops; loading the drops first keeps the
	// difference from going below zero under concurrent writes.
	dropped := c.dropped.Load()
	invals := c.invals.Load()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Admitted:      c.admitted.Load(),
		Rejected:      c.rejected.Load(),
		Invalidations: invals,
		Updated:       invals - dropped,
		Evictions:     c.evicts.Load(),
	}
}
