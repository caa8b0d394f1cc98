package ahi_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ahi"
	"ahi/internal/workload"
)

// TestPlainTreeSharedSessions: one plain BTree (no shards) serves four
// goroutines at once, each through its own session, with the result
// cache, asynchronous migrations and a budget tight enough that the
// adaptation phases migrate leaves. Worker g owns the keys k with
// k % 4 == g, so a per-worker map is an exact oracle for every lookup,
// insert, delete, batch lookup and scan result in its class, while the
// classes interleave in the same leaves.
func TestPlainTreeSharedSessions(t *testing.T) {
	const (
		workers = 4
		n       = 20_000 // bulk-loaded keys per worker
		ops     = 30_000 // calls per worker
		batch   = 16
		scanN   = 32
	)
	keys := make([]uint64, workers*n)
	vals := make([]uint64, workers*n)
	for i := range keys {
		keys[i], vals[i] = uint64(i), uint64(i)*3+1
	}
	base := ahi.BulkLoadPlainBTree(ahi.EncSuccinct, keys, vals).Bytes()
	var adapts atomic.Int64
	tree := ahi.BulkLoadBTree(ahi.BTreeOptions{
		ColdEncoding:    ahi.EncSuccinct,
		MemoryBudget:    base + base/4,
		CacheFraction:   0.05,
		AsyncMigrations: true,
		InitialSkip:     2, MinSkip: 1, MaxSkip: 16, MaxSampleSize: 512,
		OnAdapt: func(ahi.AdaptInfo) { adapts.Add(1) },
	}, keys, vals)
	defer tree.Close()

	oracles := make([]map[uint64]uint64, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		oracle := make(map[uint64]uint64, n)
		for j := 0; j < n; j++ {
			k := uint64(j*workers + g)
			oracle[k] = k*3 + 1
		}
		oracles[g] = oracle
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := tree.NewSession()
			defer s.Flush()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			// Keys j·4+g for j < 2n: the upper half starts absent, and the
			// Zipf draw keeps a few leaves hot across all four classes.
			z := workload.NewZipf(2*n, 0.99, int64(g)+7)
			key := func() uint64 { return uint64(z.Draw()*workers + g) }
			bk := make([]uint64, batch)
			bv := make([]uint64, batch)
			bf := make([]bool, batch)
			var sb ahi.ScanBuffer
			for i := 0; i < ops; i++ {
				switch r := rng.Intn(100); {
				case r < 55:
					k := key()
					v, ok := s.Lookup(k)
					if want, has := oracle[k]; ok != has || v != want {
						t.Errorf("worker %d: Lookup(%d) = %d, %v; want %d, %v", g, k, v, ok, want, has)
						return
					}
				case r < 70:
					k, v := key(), uint64(rng.Int63())
					_, had := oracle[k]
					if inserted := s.Insert(k, v); inserted == had {
						t.Errorf("worker %d: Insert(%d) = %v with key present %v", g, k, inserted, had)
						return
					}
					oracle[k] = v
				case r < 80:
					k := key()
					_, had := oracle[k]
					if s.Delete(k) != had {
						t.Errorf("worker %d: Delete(%d) disagrees with presence %v", g, k, had)
						return
					}
					delete(oracle, k)
				case r < 90:
					for j := range bk {
						bk[j] = key()
					}
					s.LookupBatch(bk, bv, bf)
					for j, k := range bk {
						if want, has := oracle[k]; bf[j] != has || bv[j] != want {
							t.Errorf("worker %d: LookupBatch key %d = %d, %v; want %d, %v", g, k, bv[j], bf[j], want, has)
							return
						}
					}
				default:
					reqs := []ahi.ScanReq{{From: key(), N: scanN}, {From: key(), N: scanN}}
					sb.Reset(len(reqs))
					s.ScanBatch(reqs, &sb)
					for q, req := range reqs {
						if err := checkClassScan(oracle, g, workers, 2*n, req, sb.Keys(q), sb.Vals(q)); err != "" {
							t.Errorf("worker %d: ScanBatch(%d, %d): %s", g, req.From, req.N, err)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	tree.DrainMigrations()
	if adapts.Load() == 0 {
		t.Fatal("no adaptation phase completed")
	}
	for g, oracle := range oracles {
		for j := 0; j < 2*n; j++ {
			k := uint64(j*workers + g)
			v, ok := tree.Tree.Lookup(k)
			if want, has := oracle[k]; ok != has || v != want {
				t.Fatalf("after the run: key %d = %d, %v; want %d, %v", k, v, ok, want, has)
			}
		}
	}
	if err := tree.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// checkClassScan checks one scan result against worker g's oracle: keys
// ascend from req.From, at most req.N pairs come back, every pair of g's
// class carries the oracle's value, and no key of g's class that the
// oracle holds between req.From and the last returned key (to the end of
// g's key space, when the scan came back short) is missing.
func checkClassScan(oracle map[uint64]uint64, g, workers, span int, req ahi.ScanReq, ks, vs []uint64) string {
	if len(ks) > req.N {
		return "too many pairs"
	}
	seen := 0
	for i, k := range ks {
		if k < req.From || (i > 0 && k <= ks[i-1]) {
			return "keys out of order or below From"
		}
		if int(k%uint64(workers)) != g {
			continue
		}
		if want, has := oracle[k]; !has || vs[i] != want {
			return "a pair of the worker's class disagrees with the oracle"
		}
		seen++
	}
	last := uint64(span*workers - 1)
	if len(ks) == req.N {
		last = ks[len(ks)-1]
	}
	want := 0
	for j := (int(req.From) - g + workers - 1) / workers; j < span; j++ {
		k := uint64(j*workers + g)
		if k > last {
			break
		}
		if _, has := oracle[k]; has {
			want++
		}
	}
	if seen != want {
		return "the worker's class lost or gained keys"
	}
	return ""
}
