package shard

import (
	"math/rand"
	"sync"
	"testing"

	"ahi/internal/btree"
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

// TestRebalanceSplitsBudgetByHotness drives traffic at one shard and
// checks the hotness counters steer the budget split.
func TestRebalanceSplitsBudgetByHotness(t *testing.T) {
	cfg := testConfig(4, 1)
	cfg.Adaptive.MemoryBudget = 1 << 20 // total across shards
	keys, vals := loadKeys(8_000)
	s := BulkLoad(cfg, keys, vals)
	defer s.Close()

	// Hammer shard 0's range only.
	q := make([]uint64, 128)
	got := make([]uint64, 128)
	ok := make([]bool, 128)
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 100; round++ {
		for i := range q {
			q[i] = keys[rng.Intn(2000)] // first quarter = shard 0
		}
		s.LookupBatch(q, got, ok)
	}
	if s.Ops(0) <= s.Ops(3) {
		t.Fatalf("hot shard ops %d not above cold shard ops %d", s.Ops(0), s.Ops(3))
	}
	s.Rebalance() // must not panic; decays counters
	if s.Ops(0) < 0 {
		t.Fatal("negative ops after decay")
	}
}

// TestRebalanceMovesCacheBytes pins the budget contract of the result
// caches: rebalancing grows the hot shard's cache past its even-split
// allocation, and the caches together never exceed CacheFraction of the
// total budget.
func TestRebalanceMovesCacheBytes(t *testing.T) {
	const total, frac = 4 << 20, 0.1
	cfg := testConfig(4, 1)
	cfg.Adaptive.MemoryBudget = total
	cfg.Adaptive.CacheFraction = frac
	cfg.RebalanceEvery = -1 // rebalance only when the test says so
	keys, vals := loadKeys(8_000)
	s := BulkLoad(cfg, keys, vals)
	defer s.Close()
	start := s.Shard(0).CacheBytes()
	if start == 0 {
		t.Fatal("shard 0 has no cache")
	}

	q := make([]uint64, 128)
	got := make([]uint64, 128)
	ok := make([]bool, 128)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 20; round++ {
		for b := 0; b < 10; b++ {
			for i := range q {
				q[i] = keys[rng.Intn(2000)] // first quarter = shard 0
			}
			s.LookupBatch(q, got, ok)
			for i := range q {
				if !ok[i] || got[i] != q[i]/5 {
					t.Fatalf("round %d: Lookup(%d) = %d,%v", round, q[i], got[i], ok[i])
				}
			}
		}
		s.Rebalance()
		var sum int64
		for i := 0; i < s.Shards(); i++ {
			sum += s.Shard(i).CacheBytes()
		}
		if float64(sum) > frac*total {
			t.Fatalf("round %d: caches hold %d bytes, over %.0f%% of the %d budget", round, sum, 100*frac, total)
		}
	}
	if hot := s.Shard(0).CacheBytes(); hot <= start {
		t.Fatalf("hot shard's cache holds %d bytes, not above its even-split %d", hot, start)
	}
	if cold := s.Shard(3).CacheBytes(); cold >= start {
		t.Fatalf("cold shard's cache holds %d bytes, not below its even-split %d", cold, start)
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
