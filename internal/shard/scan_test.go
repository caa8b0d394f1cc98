package shard

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"ahi/internal/btree"
)

// TestShardScanBatchMatchesScanOracle: for every shard count, the fused
// cross-shard ScanBatch must deliver exactly what the sequential
// callback Scan delivers — same pairs, same ascending order — including
// requests that span several shard boundaries.
func TestShardScanBatchMatchesScanOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 4, 16} {
		keys, vals := loadKeys(50_000)
		s := BulkLoad(testConfig(shards, 4), keys, vals)
		rng := rand.New(rand.NewSource(int64(shards)))
		var buf btree.ScanBuffer
		for round := 0; round < 20; round++ {
			nreq, maxN := 1+rng.Intn(10), 8_000
			if round%4 == 3 {
				// Enough requests a shard that sub-batches are handed to
				// other goroutines.
				nreq, maxN = 2*fanOutMinKeys*shards, 300
			}
			reqs := make([]btree.ScanReq, nreq)
			for i := range reqs {
				reqs[i] = btree.ScanReq{
					// Long lengths force cross-shard continuations at 16 shards.
					From: uint64(rng.Intn(len(keys) * 5)),
					N:    rng.Intn(maxN),
				}
			}
			buf.Reset(nreq)
			got := s.ScanBatch(reqs, &buf)
			total := 0
			for i, r := range reqs {
				var wk, wv []uint64
				s.Scan(r.From, r.N, func(k, v uint64) bool {
					wk = append(wk, k)
					wv = append(wv, v)
					return true
				})
				total += len(wk)
				if buf.Len(i) != len(wk) {
					t.Fatalf("shards=%d round=%d req=%d (%+v): got %d pairs, want %d",
						shards, round, i, r, buf.Len(i), len(wk))
				}
				for j := range wk {
					if buf.Keys(i)[j] != wk[j] || buf.Vals(i)[j] != wv[j] {
						t.Fatalf("shards=%d req=%d pair %d: got (%d,%d) want (%d,%d)",
							shards, i, j, buf.Keys(i)[j], buf.Vals(i)[j], wk[j], wv[j])
					}
				}
			}
			if got != total {
				t.Fatalf("shards=%d round=%d: ScanBatch returned %d, delivered %d",
					shards, round, got, total)
			}
		}
		s.Close()
	}
}

// appendSink accumulates emitted segments per request and asserts each
// request's keys arrive in ascending order across Emit calls — the
// cross-shard stitching contract.
type appendSink struct {
	t    *testing.T
	last []uint64
	n    []int
	seen []bool
}

func newAppendSink(t *testing.T, nreq int) *appendSink {
	return &appendSink{t: t, last: make([]uint64, nreq), n: make([]int, nreq), seen: make([]bool, nreq)}
}

func (a *appendSink) Emit(req int, keys, vals []uint64) {
	if len(keys) != len(vals) {
		a.t.Errorf("req %d: %d keys vs %d vals", req, len(keys), len(vals))
	}
	for _, k := range keys {
		if a.seen[req] && k <= a.last[req] {
			a.t.Errorf("req %d: key %d not ascending (last %d)", req, k, a.last[req])
			return
		}
		a.last[req] = k
		a.seen[req] = true
	}
	a.n[req] += len(keys)
}

// TestShardScanBatchUnderConcurrentWrites races fused scans against
// batched inserts and the async migration machinery. Scanned keys are
// pre-loaded and immutable; inserts land in a disjoint key range, so
// every scan must still observe ascending keys per request and at least
// the pre-loaded density. Run under -race in CI.
func TestShardScanBatchUnderConcurrentWrites(t *testing.T) {
	keys, vals := loadKeys(40_000)
	s := BulkLoad(testConfig(8, 4), keys, vals)
	defer s.Close()
	maxKey := keys[len(keys)-1]

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			ik := make([]uint64, 128)
			iv := make([]uint64, 128)
			ib := make([]bool, 128)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range ik {
					// Disjoint from the scanned range: all above maxKey.
					ik[i] = maxKey + 1 + uint64(rng.Intn(1<<20))
					iv[i] = uint64(i)
				}
				s.InsertBatch(ik, iv, ib)
			}
		}(w)
	}

	rng := rand.New(rand.NewSource(77))
	for round := 0; round < 60; round++ {
		nreq := 6
		if round%4 == 3 {
			nreq = 8 * 2 * fanOutMinKeys // sub-batches run on other goroutines
		}
		reqs := make([]btree.ScanReq, nreq)
		for i := range reqs {
			reqs[i] = btree.ScanReq{From: uint64(rng.Intn(30_000) * 5), N: 2_000}
		}
		sink := newAppendSink(t, nreq)
		s.ScanBatch(reqs, sink)
		for i, r := range reqs {
			// All Froms leave ≥2000 pre-loaded keys ahead of them, so every
			// request must fill completely regardless of concurrent inserts.
			if sink.n[i] < r.N {
				t.Fatalf("round %d req %d: delivered %d of %d pairs", round, i, sink.n[i], r.N)
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

func TestShardScanBatchEdgeCases(t *testing.T) {
	keys, vals := loadKeys(10_000)
	s := BulkLoad(testConfig(4, 2), keys, vals)
	defer s.Close()
	var buf btree.ScanBuffer

	if n := s.ScanBatch(nil, &buf); n != 0 {
		t.Fatalf("empty batch delivered %d", n)
	}
	buf.Reset(2)
	n := s.ScanBatch([]btree.ScanReq{
		{From: 0, N: 0},
		{From: keys[len(keys)-1] + 1, N: 50},
	}, &buf)
	if n != 0 {
		t.Fatalf("degenerate batch delivered %d", n)
	}
	// One request draining everything crosses all shard boundaries.
	buf.Reset(1)
	s.ScanBatch([]btree.ScanReq{{From: 0, N: len(keys) * 2}}, &buf)
	if buf.Len(0) != len(keys) {
		t.Fatalf("full drain delivered %d pairs, want %d", buf.Len(0), len(keys))
	}
	// So does one that asks for more pairs than an int32 counts (narrowed,
	// these N read as negative, zero and 10), from every shard of three.
	if strconv.IntSize < 64 {
		return
	}
	oracle := make(map[uint64]uint64, len(keys))
	for i, k := range keys {
		oracle[k] = vals[i]
	}
	s3 := BulkLoad(testConfig(3, 2), keys, vals)
	defer s3.Close()
	for _, n64 := range []int64{1<<31 + 5, 1 << 32, 1<<32 + 10, math.MaxInt64} {
		for _, from := range []uint64{0, keys[4_000], keys[9_000], keys[len(keys)-1] + 1} {
			want := 0
			for k := range oracle {
				if k >= from {
					want++
				}
			}
			buf.Reset(1)
			got := s3.ScanBatch([]btree.ScanReq{{From: from, N: int(n64)}}, &buf)
			if got != want || buf.Len(0) != want {
				t.Fatalf("from %d N %d: returned %d, delivered %d pairs, want %d", from, n64, got, buf.Len(0), want)
			}
			for i, k := range buf.Keys(0) {
				if v, ok := oracle[k]; !ok || v != buf.Vals(0)[i] || k < from || (i > 0 && k <= buf.Keys(0)[i-1]) {
					t.Fatalf("from %d N %d: pair %d is (%d,%d)", from, n64, i, k, buf.Vals(0)[i])
				}
			}
		}
	}
}
