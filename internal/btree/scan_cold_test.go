package btree

import (
	"math/rand"
	"sort"
	"testing"
)

// coldKeys builds n sorted random uint64 keys: random spacing makes the
// per-leaf FOR deltas wide (~50 bits), matching the YCSB key distribution
// — wide-width decode is the hard case.
func coldKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Cold-regime benchmarks: a 1M-key tree (payloads far exceed LLC) with
// starts striding the whole key space, so every batch decodes leaves that
// are not cache-resident. The plain benchmarks in scan_test.go cover the
// cache-resident kernel cost.
func BenchmarkScanBatchSuccinctCold(b *testing.B) {
	const n = 1 << 20
	keys := coldKeys(n)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	const ln = 256
	reqs := make([]ScanReq, 8)
	var buf ScanBuffer
	stride := n / 9
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range reqs {
			at := (i*stride + it*617) % (n - ln)
			reqs[i] = ScanReq{From: keys[at], N: ln}
		}
		buf.Reset(len(reqs))
		tr.ScanBatch(reqs, &buf)
	}
}

func BenchmarkScanElementwiseSuccinctCold(b *testing.B) {
	const n = 1 << 20
	keys := coldKeys(n)
	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = uint64(i)
	}
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	const ln = 256
	reqs := make([]ScanReq, 8)
	stride := n / 9
	var sink uint64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i := range reqs {
			at := (i*stride + it*617) % (n - ln)
			reqs[i] = ScanReq{From: keys[at], N: ln}
		}
		for _, r := range reqs {
			scanElementwise(tr, r.From, r.N, func(k, v uint64) bool {
				sink += v
				return true
			})
		}
	}
	_ = sink
}
