package cache

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewSizing(t *testing.T) {
	if c := New(10); c != nil {
		t.Fatalf("tiny budget should disable the cache")
	}
	c := New(1 << 20)
	if c == nil {
		t.Fatal("1MB cache is nil")
	}
	if got := c.Bytes(); got <= 0 || got > 1<<20 {
		t.Fatalf("Bytes() = %d, want (0, 1MB]", got)
	}
	// Power-of-two bucket count: Bytes is a power of two times ways*slotBytes.
	if b := uint64(c.Bytes()) / (ways * slotBytes); b&(b-1) != 0 {
		t.Fatalf("bucket count %d not a power of two", b)
	}
	// A budget between powers of two widens the buckets (extra ways)
	// instead of stranding the remainder on the pow2 floor.
	wide := New(3 << 19) // 1.5MB: same bucket count as 1MB, 6 ways
	if wide.ways != 6 || wide.Bytes() != 3<<19 {
		t.Fatalf("1.5MB cache: ways=%d bytes=%d, want 6 ways spending all 1572864", wide.ways, wide.Bytes())
	}
	if got := uint64(c.Bytes()) / slotBytes; uint64(len(wide.tab.Load().slots)) <= got {
		t.Fatal("widened cache should hold more slots than the pow2 floor")
	}
	if (*Cache)(nil).Bytes() != 0 || (*Cache)(nil).Len() != 0 {
		t.Fatal("nil cache accessors should be zero")
	}
	if (Stats{}) != (*Cache)(nil).Stats() {
		t.Fatal("nil cache stats should be zero")
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
	// BeginWrite clears the entry, and a snapshot taken while the write is
	// in flight admits nothing, even once the stripe stops moving.
	c.BeginWrite(7)
	if _, ok := c.Probe(7); ok {
		t.Fatal("hit after BeginWrite")
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
	c := New(minBytes) // one active bucket after pow2Floor: forces conflict
	if c == nil {
		t.Fatal("minBytes cache is nil")
	}
	c.Admit(1, 10, c.Snap(1), true, true) // hot: freq 2
	// Fill the remaining ways and then overflow with probationary keys;
	// the hot entry should survive eviction pressure.
	for k := uint64(2); k < 40; k++ {
		c.Admit(k, k, c.Snap(k), false, true)
	}
	if v, ok := c.Probe(1); !ok || v != 10 {
		t.Fatalf("hot entry evicted by probationary churn: %d,%v", v, ok)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("expected evictions under overflow")
	}
}

// TestEvictGate pins the doorkeeper contract: evictOK=false admissions
// fill empty ways and refresh a key's own slot but never displace a live
// entry, so an invalidated hot key re-enters immediately while a tail
// singleton cannot churn a full bucket.
func TestEvictGate(t *testing.T) {
	c := New(minBytes)
	// Collect keys that all land in the same bucket.
	target := mix(1) & c.tab.Load().mask
	var fill []uint64
	for k := uint64(1); len(fill) < ways+2; k++ {
		if mix(k)&c.tab.Load().mask == target {
			fill = append(fill, k)
		}
	}
	stranger, stranger2 := fill[ways], fill[ways+1]
	fill = fill[:ways]
	for _, k := range fill {
		c.Admit(k, k*10, c.Snap(k), false, false)
	}
	if got := c.Len(); got != ways {
		t.Fatalf("gated fill of empty ways stored %d entries, want %d", got, ways)
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
		t.Fatalf("own-slot refresh gated: %d,%v", v, ok)
	}
	// Invalidation empties the slot; the next gated admission takes it.
	c.Invalidate(fill[1])
	c.Admit(stranger, 2, c.Snap(stranger), false, false)
	if v, ok := c.Probe(stranger); !ok || v != 2 {
		t.Fatalf("gated admission could not fill an emptied way: %d,%v", v, ok)
	}
	// An ungated admission into a full bucket does evict.
	evBefore := c.Stats().Evictions
	c.Admit(stranger2, 3, c.Snap(stranger2), false, true)
	if c.Stats().Evictions == evBefore {
		t.Fatal("evictOK admission did not evict from a full bucket")
	}
}

func TestUpdateInPlaceViaAdmit(t *testing.T) {
	c := New(1 << 16)
	c.Admit(5, 1, c.Snap(5), false, true)
	c.Admit(5, 2, c.Snap(5), false, true) // same key: refresh, not a second slot
	if v, ok := c.Probe(5); !ok || v != 2 {
		t.Fatalf("Probe(5) = %d,%v want 2,true", v, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestResize(t *testing.T) {
	c := New(1 << 20)
	start := c.Bytes()
	c.Admit(9, 90, c.Snap(9), false, true)

	// Grow past the construction size: a larger, empty, working table.
	// Every resize below must leave none of the earlier entries behind,
	// including one back to a size the cache had before.
	c.Resize(1 << 22)
	if c.Bytes() <= start || c.Bytes() > 1<<22 {
		t.Fatalf("grow: Bytes = %d, want in (%d, %d]", c.Bytes(), start, 1<<22)
	}
	checkFreshTable(t, c)

	// Shrink below it: a smaller, empty, working table.
	grown := c.Bytes()
	c.Resize(1 << 14)
	if c.Bytes() >= start || c.Bytes() > 1<<14 {
		t.Fatalf("shrink: Bytes = %d (start %d, grown %d)", c.Bytes(), start, grown)
	}
	checkFreshTable(t, c)

	// Back to the construction size: still a fresh table.
	c.Resize(1 << 20)
	if c.Bytes() != start {
		t.Fatalf("back to start: Bytes = %d, want %d", c.Bytes(), start)
	}
	checkFreshTable(t, c)

	// Same bucket count: the table and its entries stay.
	tab := c.tab.Load()
	c.Resize(1<<20 + slotBytes)
	if c.tab.Load() != tab {
		t.Fatal("resize to the same bucket count swapped the table")
	}
	if v, ok := c.Probe(9); !ok || v != 91 {
		t.Fatalf("same-size resize lost an entry: %d,%v", v, ok)
	}
}

// checkFreshTable asserts c's table is empty and that it caches again.
func checkFreshTable(t *testing.T, c *Cache) {
	t.Helper()
	if _, ok := c.Probe(9); ok {
		t.Fatal("entry survived a resize")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after resize", c.Len())
	}
	c.Admit(9, 91, c.Snap(9), false, true)
	if v, ok := c.Probe(9); !ok || v != 91 {
		t.Fatalf("cache dead after resize: %d,%v", v, ok)
	}
}

// TestConcurrentStrict hammers a small cache with writers that keep the
// authoritative value monotonically increasing (bracketed by BeginWrite
// and EndWrite, like the tree write path) and readers that must never
// observe a value going backwards — the observable symptom of a stale
// cache read, including one that follows a read of the new value while
// its write is still in flight.
func TestConcurrentStrict(t *testing.T) {
	c := New(minBytes) // tiny: maximize slot reuse and eviction races
	const keys = 8
	var truth [keys]atomic.Uint64
	var writes atomic.Int64
	var stop atomic.Bool
	var writers, readers sync.WaitGroup

	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(seed uint64) {
			defer writers.Done()
			for i := seed; !stop.Load(); i++ {
				k := i % keys
				c.BeginWrite(k)
				truth[k].Add(1)
				c.EndWrite(k)
				writes.Add(1)
			}
		}(uint64(w))
	}
	// One goroutine swapping tables concurrently, below and above the
	// construction size: must not break strictness.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for !stop.Load() {
			c.Resize(minBytes / 2)
			c.Resize(8 * minBytes)
		}
	}()

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
}
