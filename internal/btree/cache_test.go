package btree

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ahi/internal/core"
	"ahi/internal/obs"
	"ahi/internal/workload"
)

// cacheFixture bulk-loads an adaptive tree with the result cache on, an
// absolute budget of the compact baseline plus extraLeaves full Gapped
// leaves, and the cache sized at frac of it.
func cacheFixture(n, extraLeaves int, frac float64, seed int64) (*Adaptive, int64, []uint64) {
	keys, vals := sortedPairs(n, seed)
	base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	cfg := AdaptiveConfig{
		Tree:        Config{DefaultEncoding: EncSuccinct},
		InitialSkip: 4, MinSkip: 2, MaxSkip: 64,
		MemoryBudget:  base.Bytes() + int64(extraLeaves)*(LeafCap*16+leafHeaderBytes),
		CacheFraction: frac,
	}
	return BulkLoadAdaptive(cfg, keys, vals), cfg.MemoryBudget, keys
}

// TestCacheBudgetEdge drives a cached tree to its budget edge and checks
// the hard invariant of the charge accounting: encodings plus cache never
// exceed the configured budget. The cache is deliberately oversized —
// fraction 0.15 of the whole budget lands at roughly two thirds of the
// expansion headroom above the succinct floor — so an accounting slip
// (the tree expanding into the cache's slice) would overspend visibly.
func TestCacheBudgetEdge(t *testing.T) {
	run := func(frac float64) (total int64, budget int64, gapped int64) {
		a, budget, keys := cacheFixture(50000, 40, frac, 2)
		s := a.NewSession()
		z := workload.NewZipf(len(keys), 1.0, 5)
		for i := 0; i < 2_000_000; i++ {
			s.Lookup(keys[z.Draw()])
		}
		_, _, gapped = a.Tree.LeafCounts()
		return a.Tree.Bytes() + a.CacheBytes(), budget, gapped
	}

	total, budget, gapped := run(0.15)
	// One leaf of slack, as for the uncached budget test: a migration that
	// was in flight when the phase's budget was computed may land late.
	if total > budget+LeafCap*16 {
		t.Fatalf("tree+cache = %d exceeds budget %d", total, budget)
	}
	if gapped == 0 {
		t.Fatal("budget so tight nothing expanded")
	}
	freeTotal, _, freeGapped := run(0)
	if freeTotal > budget+LeafCap*16 {
		t.Fatalf("uncached tree = %d exceeds budget %d", freeTotal, budget)
	}
	// The cache's slice must have come out of the expansion headroom.
	if gapped >= freeGapped {
		t.Fatalf("cache charge did not shrink expansions: %d gapped with cache, %d without", gapped, freeGapped)
	}
}

// TestCacheInvalidationRace races cached readers against overwriting
// writers and forced leaf migrations (the full invalidation surface:
// per-key stripes bumped by writers and leaf-wide bumps by MigrateLeaf,
// with readers holding displaced images). Readers check every value they
// see is one some writer actually wrote for that exact key — a stale or
// cross-key cache hit fails the decode. Run under -race.
func TestCacheInvalidationRace(t *testing.T) {
	const (
		n       = 20000
		readers = 4
		writers = 2
		ops     = 200_000
	)
	keys, vals := sortedPairs(n, 7)
	base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:        Config{DefaultEncoding: EncSuccinct},
		InitialSkip: 4, MinSkip: 2, MaxSkip: 64,
		MemoryBudget:    base.Bytes() + 40*(LeafCap*16+leafHeaderBytes),
		CacheFraction:   0.3,
		AsyncMigrations: true,
	}, keys, vals)
	defer a.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	// Writers overwrite hot-skewed keys with values of the form
	// initial(k) + 1000*g, keeping invalidation pressure on exactly the
	// keys the cache holds.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s := a.NewSession()
			z := workload.NewZipf(n, 1.1, int64(100+id))
			for g := 1; !stop.Load(); g++ {
				j := z.Draw()
				s.Insert(keys[j], vals[j]+1000*uint64(g%1000+1))
			}
		}(w)
	}
	// A migrator cycles random leaves through every encoding, displacing
	// images the cache path may still be decoding from.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for !stop.Load() {
			_, leaf, _ := a.Tree.lookupLeaf(keys[rng.Intn(n)], nil)
			a.Tree.MigrateLeaf(leaf, core.Encoding(rng.Intn(3)))
		}
	}()

	var bad atomic.Int64
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(id int) {
			defer rwg.Done()
			s := a.NewSession()
			z := workload.NewZipf(n, 1.1, int64(id))
			for i := 0; i < ops; i++ {
				j := z.Draw()
				v, ok := s.Lookup(keys[j])
				if !ok || (v-vals[j])%1000 != 0 || v < vals[j] {
					bad.Add(1)
				}
			}
		}(r)
	}
	// Readers bound the run; writers and the migrator spin until all of
	// them finish, keeping invalidation pressure up the whole time.
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	if got := bad.Load(); got != 0 {
		t.Fatalf("%d reads returned values never written for their key", got)
	}
	if err := a.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	st := a.CacheStats()
	if st.Hits == 0 || st.Invalidations == 0 {
		t.Fatalf("race exercised nothing: hits=%d invalidations=%d", st.Hits, st.Invalidations)
	}
}

// TestCachedOverwritesLinearizable races owner writers of a hot key set
// against cached readers and a migrator. Each key has one writer, as the
// leaf lock gives each key one writer at a time, and it writes increasing
// values through Insert (the held-way update) and InsertBatch (in-place
// runs and merged runs), then reads its own last write back. Readers
// share one register a key of the largest value any finished read
// returned; a read that starts after it must not return less: a cached
// value shown before the tree publishes it, or kept after, reads
// backwards the moment a later read reaches the tree. A third of the
// lookups are sampled and so bypass the cache, and the migrator cycles
// the hot leaves through every encoding, so Succinct overwrites swap
// images and Gapped and Packed ones store in place.
func TestCachedOverwritesLinearizable(t *testing.T) {
	const writers, readers = 2, 2
	keys, vals := sortedPairs(4000, 48)
	hot := append(append([]uint64(nil), keys[100:112]...), keys[2000:2012]...)
	for j := range vals {
		vals[j] = 0
	}
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:         Config{DefaultEncoding: EncGapped},
		InitialSkip:  3,
		FixedSkip:    true,
		MemoryBudget: 1 << 30,
		// 10 MB of cache: every hot key stays cached.
		CacheFraction: 0.01,
	}, keys, vals)
	defer a.Close()
	slot := map[uint64]int{}
	for i, k := range hot {
		slot[k] = i
	}
	var seen [24]atomic.Uint64
	var stop atomic.Bool
	errc := make(chan string, writers+readers)
	fail := func(msg string) {
		select {
		case errc <- msg:
		default:
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a.NewSession()
			var own []uint64
			for i := w; i < len(hot); i += writers {
				own = append(own, hot[i])
			}
			bv := make([]uint64, len(own))
			ins := make([]bool, len(own))
			for seq := uint64(1); !stop.Load(); seq++ {
				k := own[seq%uint64(len(own))]
				if seq%3 == 0 {
					for j := range bv {
						bv[j] = seq
					}
					s.InsertBatch(own, bv, ins)
				} else {
					s.Insert(k, seq)
				}
				if v, ok := s.Lookup(k); !ok || v != seq {
					fail(fmt.Sprintf("writer %d: key %d reads (%d,%v) after writing %d", w, k, v, ok, seq))
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			_, leaf, _ := a.Tree.lookupLeaf(hot[i%len(hot)], nil)
			a.Tree.MigrateLeaf(leaf, core.Encoding(i/len(hot)%3))
		}
	}()

	check := func(r int, k, floor, v uint64, ok bool) bool {
		if !ok || v < floor {
			fail(fmt.Sprintf("reader %d: key %d reads (%d,%v) after a finished read of %d", r, k, v, ok, floor))
			return false
		}
		for sk := &seen[slot[k]]; ; {
			if cur := sk.Load(); cur >= v || sk.CompareAndSwap(cur, v) {
				return true
			}
		}
	}
	start := time.Now()
	var rwg sync.WaitGroup
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			s := a.NewSession()
			bv := make([]uint64, len(hot))
			found := make([]bool, len(hot))
			floors := make([]uint64, len(hot))
			for i := 0; i < 300000 && time.Since(start) < 3*time.Second; i++ {
				if i%8 == 0 {
					for j, k := range hot {
						floors[j] = seen[slot[k]].Load()
					}
					s.LookupBatch(hot, bv, found)
					for j, k := range hot {
						if !check(r, k, floors[j], bv[j], found[j]) {
							return
						}
					}
					continue
				}
				k := hot[(i*7+r)%len(hot)]
				floor := seen[slot[k]].Load()
				if v, ok := s.Lookup(k); !check(r, k, floor, v, ok) {
					return
				}
			}
		}(r)
	}
	rwg.Wait()
	stop.Store(true)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
	if err := a.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	st := a.CacheStats()
	if st.Hits == 0 || st.Updated == 0 {
		t.Fatalf("race exercised nothing: %+v", st)
	}
	t.Logf("cache %+v", st)
}

// FuzzCacheOracle replays an arbitrary operation tape through a cached
// session against a map oracle, with forced leaf migrations interleaved.
// Sequential consistency through the cache is strict: the moment an
// Insert or Delete returns, a Lookup of that key must see the new state.
func FuzzCacheOracle(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{0, 10, 0, 4, 10, 0, 1, 10, 0, 4, 10, 0, 2, 10, 0, 4, 10, 0})
	f.Add([]byte{9, 1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6, 9, 7, 9, 8, 9, 9})
	f.Fuzz(func(t *testing.T, tape []byte) {
		// Seed keys so the cache has something to hold from the start.
		keys := make([]uint64, 256)
		vals := make([]uint64, 256)
		for i := range keys {
			keys[i] = uint64(i) * 257
			vals[i] = uint64(i) + 1
		}
		a := BulkLoadAdaptive(AdaptiveConfig{
			Tree:        Config{DefaultEncoding: EncSuccinct},
			InitialSkip: 4, MinSkip: 2, MaxSkip: 64,
			MemoryBudget:  1 << 20,
			CacheFraction: 0.3,
		}, keys, vals)
		s := a.NewSession()
		ref := map[uint64]uint64{}
		for i := range keys {
			ref[keys[i]] = vals[i]
		}
		var last uint64
		for i := 0; i+2 < len(tape); i += 3 {
			op := tape[i] % 5
			k := uint64(binary.LittleEndian.Uint16(tape[i+1 : i+3]))
			switch op {
			case 0, 1: // insert / overwrite
				v := uint64(tape[i]) + 1
				s.Insert(k, v)
				ref[k] = v
				last = k
			case 2: // delete
				got := s.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("Delete(%d)=%v want %v", k, got, want)
				}
				delete(ref, k)
			case 3: // lookup — the cache must agree with the oracle
				got, ok := s.Lookup(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Lookup(%d)=(%d,%v) want (%d,%v)", k, got, ok, want, wok)
				}
			case 4: // migrate the leaf holding the last touched key
				_, leaf, _ := a.Tree.lookupLeaf(last, nil)
				a.Tree.MigrateLeaf(leaf, core.Encoding(tape[i]%3))
				// The migrated leaf's keys must still read correctly.
				got, ok := s.Lookup(last)
				want, wok := ref[last]
				if ok != wok || (ok && got != want) {
					t.Fatalf("post-migrate Lookup(%d)=(%d,%v) want (%d,%v)", last, got, ok, want, wok)
				}
			}
		}
		if err := a.Tree.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestLookupBatchZeroAlloc pins the zero-allocation guarantee on the
// batched lookup hot path, cached and uncached. Sampling is pushed out of
// reach (huge fixed skip) so the measured passes are pure hot path — the
// same configuration the CI gate benchmarks run with `-benchmem`.
func TestLookupBatchZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		frac float64
	}{{"NoCache", 0}, {"Cache", 0.2}} {
		t.Run(tc.name, func(t *testing.T) {
			if raceEnabled && tc.frac == 0 {
				t.Skip("sync.Pool drops items under the race detector; the non-race run enforces this")
			}
			keys, vals := sortedPairs(100000, 3)
			base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
			a := BulkLoadAdaptive(AdaptiveConfig{
				Tree:          Config{DefaultEncoding: EncSuccinct},
				InitialSkip:   1 << 30,
				FixedSkip:     true,
				MemoryBudget:  base.Bytes() * 2,
				CacheFraction: tc.frac,
			}, keys, vals)
			s := a.NewSession()
			z := workload.NewZipf(len(keys), 0.99, 17)
			qk := make([]uint64, 128)
			qv := make([]uint64, 128)
			qf := make([]bool, 128)
			for i := range qk {
				qk[i] = keys[z.Draw()]
			}
			s.LookupBatch(qk, qv, qf) // warm: scratch growth + cache fill
			if avg := testing.AllocsPerRun(100, func() {
				s.LookupBatch(qk, qv, qf)
			}); avg != 0 {
				t.Fatalf("LookupBatch allocates %.1f allocs/op, want 0", avg)
			}
			if tc.frac == 0 {
				return
			}
			// Counted once per batch, the probes still land exactly: no
			// key is sampled, so every key is one hit or one miss.
			before := a.CacheStats()
			s.LookupBatch(qk, qv, qf)
			after := a.CacheStats()
			if got := (after.Hits - before.Hits) + (after.Misses - before.Misses); got != int64(len(qk)) {
				t.Fatalf("one batch of %d keys counted %d probes", len(qk), got)
			}
		})
	}
}

// iterSink keeps TestSessionOpsZeroAlloc's iterators on the heap: with
// NewIterator inlined, a discarded iterator would live on the stack.
var iterSink *Iterator

// TestSessionOpsZeroAlloc extends the guarantee to the single-key session
// operations, for an untraced session and for a traced one whose ops are
// sampled out: Lookup and Scan — which rides the ScanBatch walk — allocate
// nothing, an overwriting Insert allocates what the tree's own write does
// (the next leaf image), and a sampled NewIterator allocates the iterator
// and no tracking closure. The nil probe and the armed one cost no object.
func TestSessionOpsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, traced := range []bool{false, true} {
		keys, vals := sortedPairs(100000, 3)
		base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
		cfg := AdaptiveConfig{
			Tree:          Config{DefaultEncoding: EncSuccinct},
			InitialSkip:   1 << 30,
			FixedSkip:     true,
			MemoryBudget:  base.Bytes() * 2,
			CacheFraction: 0.2,
		}
		if traced {
			cfg.Obs = obs.New(0, 0)
			// Sampled out, and never slow: a committed event is an object.
			cfg.Obs.EnableTracing(obs.FlightConfig{SampleEvery: 1 << 30, SlowThresholdNs: 1 << 62})
		}
		a := BulkLoadAdaptive(cfg, keys, vals)
		s := a.NewSession()
		i, pairs := 0, 0
		count := func(k, v uint64) bool { pairs++; return true }
		for name, op := range map[string]func(){
			"Lookup":   func() { s.Lookup(keys[(i*37)%len(keys)] + uint64(i&1)); i++ },
			"Scan10":   func() { s.Scan(keys[(i*37)%len(keys)], 10, count); i++ },
			"Scan1000": func() { s.Scan(keys[(i*37)%len(keys)], 1000, count); i++ },
		} {
			op() // warm the pools
			if got := testing.AllocsPerRun(200, op); got != 0 {
				t.Errorf("traced=%v: %s allocates %.1f objects/op, want 0", traced, name, got)
			}
		}
		treeWrite := testing.AllocsPerRun(200, func() { a.Tree.Insert(keys[(i*37)%len(keys)], uint64(i)); i++ })
		if got := testing.AllocsPerRun(200, func() { s.Insert(keys[(i*37)%len(keys)], uint64(i)); i++ }); got > treeWrite {
			t.Errorf("traced=%v: Session.Insert allocates %.1f objects/op, Tree.Insert %.1f", traced, got, treeWrite)
		}
		a.Close()

		cfg.InitialSkip = 0 // with FixedSkip: every op is a sample
		a = BulkLoadAdaptive(cfg, keys, vals)
		s = a.NewSession()
		if got := testing.AllocsPerRun(200, func() { iterSink = s.NewIterator() }); got != 1 {
			t.Errorf("traced=%v: a sampled NewIterator allocates %.1f objects, want 1", traced, got)
		}
		a.Close()
	}
}
