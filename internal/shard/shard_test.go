package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ahi/internal/btree"
	"ahi/internal/core"
)

func testConfig(shards, workers int) Config {
	return Config{
		Shards:  shards,
		Workers: workers,
		Adaptive: btree.AdaptiveConfig{
			Tree: btree.Config{DefaultEncoding: btree.EncSuccinct},
		},
	}
}

func loadKeys(n int) ([]uint64, []uint64) {
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 5
		vals[i] = uint64(i)
	}
	return keys, vals
}

// TestRoutingAgreesWithBulkLoad: every bulk-loaded key must be findable
// through the routing table, and routed single ops must round-trip.
func TestRoutingAgreesWithBulkLoad(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		keys, vals := loadKeys(10_000)
		s := BulkLoad(testConfig(shards, 1), keys, vals)
		if s.Len() != len(keys) {
			t.Fatalf("shards=%d: Len=%d want %d", shards, s.Len(), len(keys))
		}
		for i, k := range keys {
			if v, ok := s.Lookup(k); !ok || v != vals[i] {
				t.Fatalf("shards=%d: Lookup(%d)=(%d,%v) want (%d,true)", shards, k, v, ok, vals[i])
			}
		}
		if _, ok := s.Lookup(3); ok {
			t.Fatalf("shards=%d: phantom key", shards)
		}
		s.Close()
	}
}

// TestBulkLoadFewKeys covers the degenerate path where the input is
// smaller than the shard count.
func TestBulkLoadFewKeys(t *testing.T) {
	keys := []uint64{1, 2, 3}
	vals := []uint64{10, 20, 30}
	s := BulkLoad(testConfig(8, 2), keys, vals)
	defer s.Close()
	for i, k := range keys {
		if v, ok := s.Lookup(k); !ok || v != vals[i] {
			t.Fatalf("Lookup(%d)=(%d,%v) want (%d,true)", k, v, ok, vals[i])
		}
	}
}

// segmentShapes are per-shard segment sizes of a 4-shard batch, one for
// every branch of fanOut: a lone segment, one large segment with stray
// keys beside it (the hot-range shape, which must stay on the caller),
// and equal segments below and above the handoff threshold.
var segmentShapes = [][4]int{
	{0, 3 * fanOutMinKeys, 0, 0},
	{1, 2 * fanOutMinKeys, 1, 1},
	{fanOutMinKeys - 1, fanOutMinKeys - 1, fanOutMinKeys - 1, fanOutMinKeys - 1},
	{fanOutMinKeys, fanOutMinKeys, fanOutMinKeys, fanOutMinKeys},
	{2 * fanOutMinKeys, fanOutMinKeys + 1, 5, 2 * fanOutMinKeys},
}

// TestBatchMatchesSingleOps cross-checks sharded batch lookups/inserts
// against routed single-key operations, inline and fanned out: random
// batches on every shard count, then every segment shape on 4 shards.
func TestBatchMatchesSingleOps(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shards := range []int{1, 4, 16} {
		for _, workers := range []int{1, 4} {
			s := New(testConfig(shards, workers))
			ref := make(map[uint64]uint64)
			// check inserts the batch, then reads it back (with as many
			// absent keys) through LookupBatch and through single Lookups.
			check := func(ks []uint64) {
				t.Helper()
				n := len(ks)
				vs, ins := make([]uint64, n), make([]bool, n)
				for i := range vs {
					vs[i] = rng.Uint64()
				}
				s.InsertBatch(ks, vs, ins)
				for i, k := range ks {
					// A repeated key is new at its first position only.
					if _, had := ref[k]; ins[i] == had {
						t.Fatalf("shards=%d workers=%d: InsertBatch(%d) new=%v, key present before: %v",
							shards, workers, k, ins[i], had)
					}
					ref[k] = vs[i]
				}
				q := make([]uint64, 0, 2*n)
				for _, k := range ks {
					q = append(q, k, k^1) // the neighbour is mostly absent
				}
				got, ok := make([]uint64, len(q)), make([]bool, len(q))
				s.LookupBatch(q, got, ok)
				for i, k := range q {
					wv, wok := ref[k]
					if ok[i] != wok || (wok && got[i] != wv) {
						t.Fatalf("shards=%d workers=%d: LookupBatch(%d)=(%d,%v) want (%d,%v)",
							shards, workers, k, got[i], ok[i], wv, wok)
					}
					if v, found := s.Lookup(k); found != ok[i] || (found && v != got[i]) {
						t.Fatalf("shards=%d workers=%d: Lookup(%d)=(%d,%v), LookupBatch said (%d,%v)",
							shards, workers, k, v, found, got[i], ok[i])
					}
				}
			}
			for round := 0; round < 30; round++ {
				ks := make([]uint64, 1+rng.Intn(256))
				for i := range ks {
					ks[i] = rng.Uint64() // spans all shards
					if i%3 == 0 {
						ks[i] = uint64(rng.Intn(5000)) // and a dense hot range
					}
				}
				check(ks)
			}
			if shards == 4 {
				for _, shape := range segmentShapes {
					var ks []uint64
					for g, n := range shape {
						for i := 0; i < n; i++ {
							ks = append(ks, uint64(g)<<62+uint64(rng.Intn(1<<20)))
						}
					}
					rng.Shuffle(len(ks), func(i, j int) { ks[i], ks[j] = ks[j], ks[i] })
					check(ks)
				}
			}
			if s.Len() != len(ref) {
				t.Fatalf("shards=%d workers=%d: Len=%d want %d", shards, workers, s.Len(), len(ref))
			}
			s.Close()
		}
	}
}

// TestScanCrossesShards checks ascending order across shard boundaries.
func TestScanCrossesShards(t *testing.T) {
	keys, vals := loadKeys(5_000)
	s := BulkLoad(testConfig(8, 1), keys, vals)
	defer s.Close()
	var seen []uint64
	n := s.Scan(0, len(keys), func(k, v uint64) bool {
		seen = append(seen, k)
		return true
	})
	if n != len(keys) || len(seen) != len(keys) {
		t.Fatalf("scan visited %d want %d", n, len(keys))
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("scan out of order at %d: %d after %d", i, seen[i], seen[i-1])
		}
	}
	// Bounded scan starting mid-range.
	var mid []uint64
	s.Scan(keys[2000], 100, func(k, v uint64) bool {
		mid = append(mid, k)
		return true
	})
	if len(mid) != 100 || mid[0] != keys[2000] {
		t.Fatalf("mid scan: got %d from %d", len(mid), mid[0])
	}
}

// TestShardsShareManagerAndCache: every shard tree is wired to one
// adaptation manager and one result cache, which holds CacheFraction of
// the total budget and serves every shard.
func TestShardsShareManagerAndCache(t *testing.T) {
	const total, frac = 4 << 20, 0.1
	cfg := testConfig(4, 1)
	cfg.Adaptive.MemoryBudget = total
	cfg.Adaptive.CacheFraction = frac
	keys, vals := loadKeys(8_000)
	s := BulkLoad(cfg, keys, vals)
	defer s.Close()
	mgr := s.Shard(0).Mgr
	for i := 1; i < s.Shards(); i++ {
		if s.Shard(i).Mgr != mgr {
			t.Fatalf("shard %d has a manager of its own", i)
		}
	}
	// The manager hashes leaves by ID: no two shards may share one.
	owner := map[uint64]int{}
	for i := 0; i < s.Shards(); i++ {
		s.Shard(i).Tree.WalkLeaves(func(l *btree.Leaf) bool {
			if j, dup := owner[l.ID()]; dup {
				t.Fatalf("leaf ID %d in shards %d and %d", l.ID(), j, i)
			}
			owner[l.ID()] = i
			return true
		})
	}
	// New spends all but at most a quarter of what it is given.
	if b := s.Shard(0).CacheBytes(); float64(b) > frac*total || float64(b) < 0.75*frac*total {
		t.Fatalf("the cache holds %d bytes of the %.0f it was given", b, frac*total)
	}

	// Lookups in shard 2's range only, each key twice: the second probe
	// hits, and every shard reports those hits — there is one cache.
	q := keys[4_000:4_128]
	got := make([]uint64, len(q))
	ok := make([]bool, len(q))
	for round := 0; round < 2; round++ {
		s.LookupBatch(q, got, ok)
		for i := range q {
			if !ok[i] || got[i] != q[i]/5 {
				t.Fatalf("round %d: Lookup(%d) = %d,%v", round, q[i], got[i], ok[i])
			}
		}
	}
	st := s.Shard(0).CacheStats()
	if st.Hits == 0 {
		t.Fatal("no cache hits on the repeated keys")
	}
	for i := 1; i < s.Shards(); i++ {
		if s.Shard(i).CacheStats() != st || s.Shard(i).CacheBytes() != s.Shard(0).CacheBytes() {
			t.Fatalf("shard %d reports another cache: %+v against %+v", i, s.Shard(i).CacheStats(), st)
		}
	}
	if s.Ops(2) != 2*int64(len(q)) || s.Ops(0) != 0 {
		t.Fatalf("routed ops: shard 2 %d, shard 0 %d; want %d and 0", s.Ops(2), s.Ops(0), 2*len(q))
	}
}

// TestHotRangeMovesBetweenShards: the hot range jumps from shard 0 to
// shard 2. One manager classifies one top-k over all shards under the
// total budget, so within three phases of the jump the new range's leaves
// are Gapped and the old range's are Succinct again — the old shard gets
// no traffic, yet its leaves are still classified. At every phase end the
// trees plus the cache fit the budget. Migrations run inline: there each
// expansion's budget check sees every migration before it.
func TestHotRangeMovesBetweenShards(t *testing.T) {
	keys, vals := loadKeys(64_000) // 16 000 keys, about 90 leaves, a shard
	cfg := testConfig(4, 1)
	cfg.Adaptive.InitialSkip = 0 // sample every access
	cfg.Adaptive.FixedSkip = true
	cfg.Adaptive.MaxSampleSize = 1024
	var phases atomic.Int64
	cfg.Adaptive.OnAdapt = func(core.AdaptInfo) { phases.Add(1) }

	cfg.Adaptive.CacheFraction = 0.1
	cfg.Adaptive.MemoryBudget = hotRangeBudget(cfg, keys, vals)
	s := BulkLoad(cfg, keys, vals)
	defer s.Close()

	leaves := func(i int) (succ, packed, gapped int64) { return s.Shard(i).Tree.LeafCounts() }
	rng := rand.New(rand.NewSource(11))
	// run looks up keys of [lo, lo+4000) until n more phases have ended,
	// checking the budget at each phase end.
	run := func(lo, n int) {
		end := phases.Load() + int64(n)
		for last := phases.Load(); last < end; {
			s.Lookup(keys[lo+rng.Intn(4_000)])
			if p := phases.Load(); p != last {
				last = p
				s.DrainMigrations()
				if used := s.Bytes() + s.Shard(0).CacheBytes(); used > cfg.Adaptive.MemoryBudget {
					t.Fatalf("phase %d: trees and cache hold %d bytes, over the %d budget", p, used, cfg.Adaptive.MemoryBudget)
				}
			}
		}
	}
	run(0, 4)
	_, _, hotA := leaves(0)
	if hotA < 15 {
		t.Fatalf("shard 0's hot range expanded %d leaves, want its ~23", hotA)
	}
	run(32_000, 3) // shard 2's first quarter
	if succ, packed, gapped := leaves(0); packed+gapped != 0 {
		t.Fatalf("old hot range not compacted 3 phases after the jump: %d succinct, %d packed, %d gapped", succ, packed, gapped)
	}
	if _, _, hotB := leaves(2); hotB < hotA-1 {
		t.Fatalf("new hot range has %d Gapped leaves 3 phases after the jump, the old one had %d", hotB, hotA)
	}
	for _, i := range []int{1, 3} {
		if _, packed, gapped := leaves(i); packed+gapped != 0 {
			t.Fatalf("cold shard %d holds %d packed and %d gapped leaves", i, packed, gapped)
		}
	}
}

// hotRangeBudget is a budget, cache included, that leaves room to expand
// 40 leaves of the bulk-loaded keys: one hot range of 4 000 keys (about
// 23 leaves) fits, two do not.
func hotRangeBudget(cfg Config, keys, vals []uint64) int64 {
	probe := BulkLoad(cfg, keys, vals)
	succinct := probe.Bytes()
	probe.Close()
	const gapped = btree.LeafCap*16 + 64
	room := 40 * (gapped - succinct/int64(len(keys)/(btree.LeafCap*7/10)))
	return int64(float64(succinct+room) / (1 - cfg.Adaptive.CacheFraction))
}

// TestHotRangeJumpResetsSkip repeats the jump with the skip controller on
// and asynchronous migrations. The range heats shard 0 until the skip
// sits at MaxSkip, then moves to shard 2. The first phase after the jump
// finds most of its samples on leaves the manager never tracked and sets
// the skip back to MinSkip, so the next phases follow within a few
// thousand lookups: the new range is Gapped, and the old one Succinct
// again, before two MaxSkip-long phases could have ended.
func TestHotRangeJumpResetsSkip(t *testing.T) {
	const minSkip, maxSkip, sample = 50, 500, 256
	keys, vals := loadKeys(64_000)
	cfg := testConfig(4, 1)
	cfg.Adaptive.AsyncMigrations = true
	cfg.Adaptive.MinSkip, cfg.Adaptive.MaxSkip = minSkip, maxSkip // the defaults
	cfg.Adaptive.MaxSampleSize = sample
	var phases atomic.Int64
	cfg.Adaptive.OnAdapt = func(core.AdaptInfo) { phases.Add(1) }
	cfg.Adaptive.CacheFraction = 0.1
	cfg.Adaptive.MemoryBudget = hotRangeBudget(cfg, keys, vals)
	s := BulkLoad(cfg, keys, vals)
	defer s.Close()
	mgr := s.Shard(0).Mgr
	rng := rand.New(rand.NewSource(11))
	lookups := func(lo, n int) {
		for i := 0; i < n; i++ {
			s.Lookup(keys[lo+rng.Intn(4_000)])
		}
	}

	// Heat shard 0's first quarter until a phase has set the skip to
	// MaxSkip; the next phase has then just begun.
	for i := 0; mgr.SkipLength() < maxSkip; i++ {
		if i == 2_000 {
			t.Fatalf("skip %d after 2 M lookups of one range, want %d", mgr.SkipLength(), maxSkip)
		}
		lookups(0, 1_000)
	}
	s.DrainMigrations()
	_, _, hotA := s.Shard(0).Tree.LeafCounts()
	if hotA < 15 {
		t.Fatalf("shard 0's hot range expanded %d leaves, want its ~23", hotA)
	}

	// One MaxSkip-long phase takes sample x maxSkip samples-or-skips
	// (128 000 lookups here); the budget is that plus 60 %. The phases
	// after the one that sees the jump take 50, 100 and 200 skips a
	// sample, so three of them fit.
	p0 := phases.Load()
	lookups(32_000, sample*maxSkip*8/5)
	s.DrainMigrations()
	n := phases.Load() - p0
	if succ, packed, gapped := s.Shard(0).Tree.LeafCounts(); packed+gapped != 0 {
		t.Fatalf("old hot range not compacted %d phases after the jump: %d succinct, %d packed, %d gapped (skip %d)",
			n, succ, packed, gapped, mgr.SkipLength())
	}
	if _, _, hotB := s.Shard(2).Tree.LeafCounts(); hotB < hotA-1 {
		t.Fatalf("new hot range has %d Gapped leaves %d phases after the jump, the old one had %d (skip %d)",
			hotB, n, hotA, mgr.SkipLength())
	}
}

// TestShardedConcurrentBatches hammers batched and single ops from
// multiple goroutines (run under -race).
func TestShardedConcurrentBatches(t *testing.T) {
	s := New(testConfig(4, 4))
	defer s.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ks := make([]uint64, 64)
			vs := make([]uint64, 64)
			ins := make([]bool, 64)
			got := make([]uint64, 64)
			ok := make([]bool, 64)
			for round := 0; round < 50; round++ {
				for i := range ks {
					ks[i] = uint64(rng.Intn(1 << 16))
					vs[i] = ks[i] * 7
				}
				s.InsertBatch(ks, vs, ins)
				s.LookupBatch(ks, got, ok)
				for i := range ks {
					if ok[i] && got[i] != ks[i]*7 {
						t.Errorf("torn value for %d: %d", ks[i], got[i])
					}
				}
				s.Lookup(uint64(rng.Intn(1 << 16)))
				k := uint64(rng.Intn(1 << 16))
				s.Insert(k, k*7)
			}
		}(int64(g + 1))
	}
	wg.Wait()
}
