package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

func TestNewSizing(t *testing.T) {
	if c := New(10); c != nil {
		t.Fatalf("tiny budget should disable the cache")
	}
	if c := New(minBytes - 1); c != nil {
		t.Fatalf("a budget below minBytes should disable the cache")
	}
	c := New(1 << 20)
	if c == nil {
		t.Fatal("1MB cache is nil")
	}
	if got := c.Bytes(); got != 1<<20 {
		t.Fatalf("Bytes() = %d, want all of 1MB", got)
	}
	// A budget between powers of two keeps three significant bits of its
	// line count instead of stranding the remainder on the pow2 floor.
	mid := New(3 << 19) // 1.5MB: 24576 lines, 0b110 << 12
	if n := len(mid.buckets); n != 24576 || mid.Bytes() != 3<<19 {
		t.Fatalf("1.5MB cache: %d buckets, %d bytes; want 24576 spending all 1572864", n, mid.Bytes())
	}
	// Lines past the third significant bit are what rounding gives up.
	if got := New(1<<20 + 1<<17 - 1).Bytes(); got != 1<<20 {
		t.Fatalf("1MB+128KB-1: Bytes() = %d, want 1MB", got)
	}
	if unsafe.Sizeof(bucket{}) != lineBytes {
		t.Fatalf("bucket is %d bytes, want one %d-byte line", unsafe.Sizeof(bucket{}), lineBytes)
	}
	if (*Cache)(nil).Bytes() != 0 || (*Cache)(nil).Len() != 0 {
		t.Fatal("nil cache accessors should be zero")
	}
	if (Stats{}) != (*Cache)(nil).Stats() {
		t.Fatal("nil cache stats should be zero")
	}
}

// wideLayout is the geometry of the 32-byte-slot layout this table
// replaced: pow2Floor(b/128) buckets, widened from 4 to at most 7 ways to
// spend the rest of b. It is the reference for how much a cache may
// charge.
func wideLayout(b int64) (buckets, ways int64) {
	buckets = pow2Floor(b / 128)
	return buckets, min(7, b/(32*buckets))
}

func pow2Floor(n int64) int64 {
	p := int64(1)
	for p*2 <= n {
		p *= 2
	}
	return p
}

// TestSizingMatchesWideLayout: over budgets from minBytes to 64 MB, a new
// cache charges exactly what the 4-7-way layout charged (never more), so
// the cache's share of every memory budget is unchanged.
func TestSizingMatchesWideLayout(t *testing.T) {
	check := func(b int64) {
		buckets, ways := wideLayout(b)
		want := buckets * ways * 32
		if got := New(b).Bytes(); got != want {
			t.Fatalf("New(%d).Bytes() = %d, the 4-7-way layout spent %d", b, got, want)
		}
	}
	for b := int64(minBytes); b <= 64<<20; b += b/13 + 1 {
		check(b)
	}
	for p := int64(minBytes); p <= 64<<20; p *= 2 {
		for _, b := range []int64{p - 1, p, p + 1, p + p/4 - 1, p + p/4, p + p/2, p + 3*p/4 - 1, p + 3*p/4} {
			if b >= minBytes {
				check(b)
			}
		}
	}
}

// TestTableAlignment: every table starts on a 64-byte boundary, so each
// bucket is exactly one cache line.
func TestTableAlignment(t *testing.T) {
	for b := int64(minBytes); b <= 8<<20; b += b/5 + 8 {
		if c := New(b); uintptr(unsafe.Pointer(&c.buckets[0]))%lineBytes != 0 {
			t.Fatalf("New(%d): first bucket at %p", b, &c.buckets[0])
		}
	}
}

func TestProbeAdmitInvalidate(t *testing.T) {
	c := New(1 << 16)
	if _, ok := c.Probe(42); ok {
		t.Fatal("empty cache hit")
	}
	snap := c.Snap(42)
	c.Admit(42, 1000, snap, false, true)
	v, ok := c.Probe(42)
	if !ok || v != 1000 {
		t.Fatalf("Probe(42) = %d,%v want 1000,true", v, ok)
	}
	c.Invalidate(42)
	if _, ok := c.Probe(42); ok {
		t.Fatal("hit after Invalidate")
	}
	st := c.Stats()
	if st.Admitted != 1 || st.Invalidations != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestUncountedProbes: batch probes leave the shared counters alone until
// the caller reports its tally, which then lands exactly.
func TestUncountedProbes(t *testing.T) {
	c := New(1 << 16)
	c.Admit(1, 10, c.Snap(1), false, true)
	if v, _, ok := c.ProbeOrSnapUncounted(1); !ok || v != 10 {
		t.Fatalf("uncounted probe of a cached key = %d,%v", v, ok)
	}
	snap := c.Snap(2)
	if _, sn, ok := c.ProbeOrSnapUncounted(2); ok || sn != snap {
		t.Fatalf("uncounted miss: ok=%v snap=%d want %d", ok, sn, snap)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("uncounted probes moved the counters: %+v", st)
	}
	c.AddProbes(1, 1)
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("AddProbes: %+v", st)
	}
}

func TestAdmitAbortsOnStaleSnap(t *testing.T) {
	c := New(1 << 16)
	snap := c.Snap(7)
	c.Invalidate(7) // bumps the stripe: snap is now stale
	c.Admit(7, 99, snap, false, true)
	if _, ok := c.Probe(7); ok {
		t.Fatal("stale admission was accepted")
	}
	if c.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", c.Stats().Rejected)
	}
	// A fresh snapshot taken after the write admits fine.
	c.Admit(7, 99, c.Snap(7), false, true)
	if v, ok := c.Probe(7); !ok || v != 99 {
		t.Fatalf("fresh admit lost: %d,%v", v, ok)
	}
	// A write that drops its way (a delete's bracket) clears the entry,
	// and a snapshot taken while the write is in flight admits nothing,
	// even once the stripe stops moving.
	c.Drop(c.BeginWrite(7))
	if _, ok := c.Probe(7); ok {
		t.Fatal("hit after BeginWrite and Drop")
	}
	snap = c.Snap(7)
	c.Admit(7, 98, snap, true, true)
	c.EndWrite(7)
	c.Admit(7, 98, snap, true, true)
	if _, ok := c.Probe(7); ok {
		t.Fatal("admission from an in-flight snapshot was accepted")
	}
	c.Admit(7, 100, c.Snap(7), false, true)
	if v, ok := c.Probe(7); !ok || v != 100 {
		t.Fatalf("admit after EndWrite lost: %d,%v", v, ok)
	}
}

func TestBumpStripesAbortsCoveredKeys(t *testing.T) {
	c := New(1 << 16)
	k := uint64(12345)
	snap := c.Snap(k)
	var mask [4]uint64
	st := StripeOf(k)
	mask[st>>6] |= 1 << (st & 63)
	c.BumpStripes(&mask)
	c.Admit(k, 1, snap, false, true)
	if _, ok := c.Probe(k); ok {
		t.Fatal("admission survived a stripe bump")
	}
	// A key on an untouched stripe is unaffected.
	var other uint64
	for other = 1; StripeOf(other) == st; other++ {
	}
	osnap := c.Snap(other)
	c.Admit(other, 2, osnap, false, true)
	if _, ok := c.Probe(other); !ok {
		t.Fatal("unrelated stripe was aborted")
	}
}

func TestHotAdmissionOutlivesProbation(t *testing.T) {
	c := New(minBytes)
	if c == nil {
		t.Fatal("minBytes cache is nil")
	}
	c.Admit(1, 10, c.Snap(1), true, true) // hot: freq 2
	// Fill the remaining ways of key 1's bucket and then overflow it with
	// probationary keys; the hot entry should survive eviction pressure.
	for _, k := range sameBucket(c, 1, 12)[1:] {
		c.Admit(k, k, c.Snap(k), false, true)
	}
	if v, ok := c.Probe(1); !ok || v != 10 {
		t.Fatalf("hot entry evicted by probationary churn: %d,%v", v, ok)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected evictions under overflow")
	}
}

// sameBucket returns n keys, k first, that c's table maps to k's bucket.
func sameBucket(c *Cache, k uint64, n int) []uint64 {
	target := c.bucket(mix(k))
	keys := []uint64{k}
	for o := k + 1; len(keys) < n; o++ {
		if c.bucket(mix(o)) == target {
			keys = append(keys, o)
		}
	}
	return keys
}

// TestEvictGate pins the doorkeeper contract: evictOK=false admissions
// fill empty ways and refresh a key's own way but never displace a live
// entry, so an invalidated hot key re-enters immediately while a tail
// singleton cannot churn a full bucket.
func TestEvictGate(t *testing.T) {
	c := New(minBytes)
	keys := sameBucket(c, 1, bucketWays+2)
	fill, stranger, stranger2 := keys[:bucketWays], keys[bucketWays], keys[bucketWays+1]
	for _, k := range fill {
		c.Admit(k, k*10, c.Snap(k), false, false)
	}
	if got := c.Len(); got != bucketWays {
		t.Fatalf("gated fill of empty ways stored %d entries, want %d", got, bucketWays)
	}
	rejBefore := c.Stats().Rejected
	c.Admit(stranger, 1, c.Snap(stranger), false, false)
	if _, ok := c.Probe(stranger); ok {
		t.Fatal("gated admission evicted a live entry")
	}
	if c.Stats().Rejected == rejBefore {
		t.Fatal("gated bounce not counted as rejected")
	}
	// Refreshing a resident key stays allowed under the gate.
	c.Admit(fill[0], 77, c.Snap(fill[0]), false, false)
	if v, ok := c.Probe(fill[0]); !ok || v != 77 {
		t.Fatalf("own-way refresh gated: %d,%v", v, ok)
	}
	// Invalidation empties the way; the next gated admission takes it.
	c.Invalidate(fill[1])
	c.Admit(stranger, 2, c.Snap(stranger), false, false)
	if v, ok := c.Probe(stranger); !ok || v != 2 {
		t.Fatalf("gated admission could not fill an emptied way: %d,%v", v, ok)
	}
	// An ungated admission into a full bucket does evict, and takes the
	// coldest way: fill[0] and stranger have a probe hit each, fill[2]
	// none.
	evBefore := c.Stats().Evictions
	c.Admit(stranger2, 3, c.Snap(stranger2), false, true)
	if c.Stats().Evictions == evBefore {
		t.Fatal("evictOK admission did not evict from a full bucket")
	}
	if _, ok := c.Probe(fill[2]); ok {
		t.Fatal("eviction spared the only way without a hit")
	}
	for _, k := range []uint64{fill[0], stranger, stranger2} {
		if _, ok := c.Probe(k); !ok {
			t.Fatalf("eviction took %d, not the coldest way", k)
		}
	}
}

// TestOneWayPerKey: admitters racing on the keys of one bucket never
// leave a key in two of its ways, and clears keep up with them.
func TestOneWayPerKey(t *testing.T) {
	c := New(minBytes)
	keys := sameBucket(c, 1, 4)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20000; i++ {
				k := keys[(i+g)%len(keys)]
				if i%7 == g {
					c.Invalidate(k)
				} else {
					c.Admit(k, k, c.Snap(k), i%3 == 0, true)
				}
			}
		}(g)
	}
	wg.Wait()
	b := c.bucket(mix(1))
	meta := b.meta.Load()
	for i := 0; i < bucketWays; i++ {
		for j := i + 1; j < bucketWays; j++ {
			if wayMeta(meta, i) != 0 && wayMeta(meta, j) != 0 && b.keys[i].Load() == b.keys[j].Load() {
				t.Fatalf("key %d holds ways %d and %d", b.keys[i].Load(), i, j)
			}
		}
	}
}

// TestTornProbe: a probe of a bucket a writer holds reports one torn
// bucket and misses with a valid snapshot; an idle bucket reports none.
func TestTornProbe(t *testing.T) {
	c := New(minBytes)
	c.Admit(5, 50, c.Snap(5), false, true)
	if v, _, torn, ok := c.ProbeOrSnapProf(5); !ok || v != 50 || torn != 0 {
		t.Fatalf("idle bucket: %d,%v torn=%d", v, ok, torn)
	}
	b := c.bucket(mix(5))
	v0 := b.ver.Load()
	b.ver.Store(v0 + 1) // a writer's critical section
	if _, snap, torn, ok := c.ProbeOrSnapProf(5); ok || torn != 1 || snap != c.Snap(5) {
		t.Fatalf("locked bucket: ok=%v torn=%d snap=%d", ok, torn, snap)
	}
	b.ver.Store(v0 + 2)
	if v, ok := c.Probe(5); !ok || v != 50 {
		t.Fatalf("after unlock: %d,%v", v, ok)
	}
}

// TestTouch: the bucket-load pass sums the seqlock words of the keys'
// buckets and changes nothing.
func TestTouch(t *testing.T) {
	c := New(1 << 16)
	keys := []uint64{3, 4, 5}
	if s := c.Touch(keys); s != 0 {
		t.Fatalf("Touch of an empty table = %d", s)
	}
	c.Admit(3, 30, c.Snap(3), false, true) // one write: the bucket's ver goes 0 -> 2
	if s := c.Touch(keys[:1]); s != 2 {
		t.Fatalf("Touch after one admission = %d, want 2", s)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || c.Len() != 1 {
		t.Fatalf("Touch moved the cache: %+v, Len %d", st, c.Len())
	}
}

func TestUpdateInPlaceViaAdmit(t *testing.T) {
	c := New(1 << 16)
	c.Admit(5, 1, c.Snap(5), false, true)
	c.Admit(5, 2, c.Snap(5), false, true) // same key: refresh, not a second way
	if v, ok := c.Probe(5); !ok || v != 2 {
		t.Fatalf("Probe(5) = %d,%v want 2,true", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// wayMetaOf returns the meta bits of k's way, 0 when k is not cached.
func (c *Cache) wayMetaOf(k uint64) uint64 {
	b := c.bucket(mix(k))
	meta := b.meta.Load()
	for i := 0; i < bucketWays; i++ {
		if m := wayMeta(meta, i); m != 0 && b.keys[i].Load() == k {
			return m
		}
	}
	return 0
}

// TestHeldOverwrite walks the held-bucket protocol of a single-key
// overwrite step by step. While the write holds k's bucket, probes of k
// and of a bucket-mate miss, an admission from a pre-write snapshot
// aborts, and a bucket-mate's BeginWrite waits. After Update the probe
// returns the new value and the way keeps its CLOCK frequency.
func TestHeldOverwrite(t *testing.T) {
	c := New(minBytes)
	keys := sameBucket(c, 1, 2)
	k, mate := keys[0], keys[1]
	c.Admit(k, 10, c.Snap(k), true, true) // hot: freq 2
	c.Admit(mate, 20, c.Snap(mate), false, true)
	c.Probe(k) // freq 3
	freq := c.wayMetaOf(k)
	pre := c.Snap(k)

	h := c.BeginWrite(k)
	if h == (Held{}) {
		t.Fatal("BeginWrite of a cached key holds nothing")
	}
	if _, ok := c.Probe(k); ok {
		t.Fatal("probe of the held key hit")
	}
	if _, ok := c.Probe(mate); ok {
		t.Fatal("probe of a bucket-mate hit while the bucket is held")
	}
	rej := c.Stats().Rejected
	c.Admit(k, 99, pre, true, true)
	if c.Stats().Rejected != rej+1 {
		t.Fatal("admission from a pre-write snapshot was not refused")
	}
	done := make(chan Held)
	go func() { done <- c.BeginWrite(mate) }()
	select {
	case <-done:
		t.Fatal("a bucket-mate's BeginWrite did not wait for the held bucket")
	case <-time.After(20 * time.Millisecond):
	}

	c.Update(h, 11) // the tree shows 11 by now
	mh := <-done
	c.Update(mh, 21)
	c.EndWrite(mate)
	c.Admit(k, 99, pre, true, true) // still stale after the release
	c.EndWrite(k)
	if got := c.wayMetaOf(k); got != freq {
		t.Fatalf("way meta after the update = %d, want %d (frequency kept)", got, freq)
	}
	if v, ok := c.Probe(k); !ok || v != 11 {
		t.Fatalf("Probe after the update = %d,%v want 11,true", v, ok)
	}
	if v, ok := c.Probe(mate); !ok || v != 21 {
		t.Fatalf("bucket-mate after its update = %d,%v want 21,true", v, ok)
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Updated != 2 || c.Len() != 2 {
		t.Fatalf("stats %+v, Len %d: want 2 invalidations, 2 updated, 2 entries", st, c.Len())
	}
}

// TestHeldDropAndUncached: a write that drops its held way (a delete)
// leaves no way for the key, and a key that was not cached at BeginWrite
// holds nothing and is not cached after the write.
func TestHeldDropAndUncached(t *testing.T) {
	c := New(minBytes)
	c.Admit(3, 30, c.Snap(3), true, true)
	h := c.BeginWrite(3)
	c.Drop(h)
	c.EndWrite(3)
	if _, ok := c.Probe(3); ok || c.wayMetaOf(3) != 0 || c.Len() != 0 {
		t.Fatalf("delete left key 3 cached (meta %d, Len %d)", c.wayMetaOf(3), c.Len())
	}

	h = c.BeginWrite(4)
	if h != (Held{}) {
		t.Fatal("BeginWrite of an uncached key holds a way")
	}
	c.Update(h, 40)
	c.EndWrite(4)
	if _, ok := c.Probe(4); ok || c.Len() != 0 {
		t.Fatal("an uncached key is cached after its overwrite")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Updated != 0 {
		t.Fatalf("stats %+v: want 1 invalidation, 0 updated", st)
	}
	var nilCache *Cache
	nilCache.Update(Held{}, 1) // the tree's uncached path
	nilCache.Drop(Held{})
}

// TestConcurrentStrict hammers a small cache with writers that keep the
// authoritative value monotonically increasing and readers that must
// never observe a value going backwards — the observable symptom of a
// stale cache read, including one that follows a read of the new value
// while its write is still in flight — nor a cached value newer than the
// authoritative one. Like the tree, where the leaf lock serialises the
// writers of a key, a writer holds the key's mutex across its bracket:
// most writes are overwrites that hand the new value to their held way
// (Update), every fourth drops it (a delete or a merged run).
func TestConcurrentStrict(t *testing.T) {
	c := New(minBytes) // tiny: maximize bucket reuse and eviction races
	const keys = 8
	var truth [keys]atomic.Uint64
	var mu [keys]sync.Mutex
	var writes atomic.Int64
	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			for i := seed; !stop.Load(); i++ {
				k := i % keys
				mu[k].Lock()
				h := c.BeginWrite(k)
				v := truth[k].Add(1) // the tree publish
				if i%4 == 0 {
					c.Drop(h)
				} else {
					c.Update(h, v)
				}
				c.EndWrite(k)
				mu[k].Unlock()
				writes.Add(1)
			}
		}(uint64(w))
	}
	start := time.Now()
	errc := make(chan string, 4)
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			var last [keys]uint64
			// Run until the writers have made real progress too (readers
			// alone can finish before a writer is ever scheduled), or for
			// a bounded time where they are slow, as under -race.
			for i := uint64(0); i < 200000 || (writes.Load() < 1000000 && time.Since(start) < 2*time.Second); i++ {
				k := i % keys
				v, ok := c.Probe(k)
				if !ok {
					snap := c.Snap(k)
					v = truth[k].Load() // the "tree lookup"
					c.Admit(k, v, snap, i%16 == 0, true)
				} else if v > truth[k].Load() {
					select {
					case errc <- "cached value ahead of the authoritative one":
					default:
					}
					return
				}
				if v < last[k] {
					select {
					case errc <- "stale read: cached value went backwards":
					default:
					}
					return
				}
				last[k] = v
			}
		}()
	}

	readers.Wait()
	stop.Store(true)
	writers.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if st := c.Stats(); st.Updated == 0 {
		t.Fatalf("no write kept its entry: %+v", st)
	}
}
