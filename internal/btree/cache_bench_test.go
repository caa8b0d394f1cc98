package btree

import (
	"slices"
	"sort"
	"testing"

	"ahi/internal/workload"
)

// Read-path benchmarks: session lookups with and without the result
// cache, single-key and batched. These back the CI regression gate
// (cmd/benchgate) and the allocs/op == 0 assertion on the batch path.

const (
	benchKeys  = 1 << 22
	benchZipf  = 0.99
	benchSeed  = 11
	benchBatch = 128
)

// benchKeySet builds a sorted unique random-u64 key set (YCSB-style:
// wide deltas, so Succinct leaves pay a realistic frame-of-reference
// decode, unlike consecutive keys whose FOR arrays are nearly free).
func benchKeySet() (keys, vals []uint64) {
	keys = make([]uint64, 0, benchKeys)
	var x uint64 = 0x9e3779b97f4a7c15
	for len(keys) < benchKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys = append(keys, x)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	keys = slices.Compact(keys)
	vals = make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	return keys, vals
}

// benchQueries pre-draws the query sequence so the timed loop measures
// lookups, not the Zipf sampler.
func benchQueries(keys []uint64, n int) []uint64 {
	d := workload.NewZipf(len(keys), benchZipf, benchSeed)
	q := make([]uint64, n)
	for i := range q {
		q[i] = keys[d.Draw()]
	}
	return q
}

func benchAdaptive(b *testing.B, frac float64) (*Adaptive, []uint64) {
	b.Helper()
	keys, vals := benchKeySet()
	// Tight budget: barely above the all-succinct floor, the regime the
	// cache is built for (hot leaves cannot all expand, so uncached hot
	// lookups pay the compressed decode).
	succ := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals).Bytes()
	gap := BulkLoad(Config{DefaultEncoding: EncGapped}, keys, vals).Bytes()
	budget := succ + (gap-succ)/16
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:          Config{DefaultEncoding: EncSuccinct},
		MemoryBudget:  budget,
		InitialSkip:   8,
		MinSkip:       4,
		MaxSkip:       32,
		CacheFraction: frac,
	}, keys, vals)
	b.Cleanup(a.Close)
	return a, keys
}

func warmSession(a *Adaptive, q []uint64) *Session {
	s := a.NewSession()
	qv := make([]uint64, benchBatch)
	qf := make([]bool, benchBatch)
	for off := 0; off+benchBatch <= len(q); off += benchBatch {
		s.LookupBatch(q[off:off+benchBatch], qv, qf)
	}
	return s
}

func benchmarkLookup(b *testing.B, frac float64) {
	a, keys := benchAdaptive(b, frac)
	q := benchQueries(keys, 1<<18)
	s := warmSession(a, q)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		v, _ := s.Lookup(q[i&(len(q)-1)])
		sink += v
	}
	_ = sink
}

func benchmarkLookupBatch(b *testing.B, frac float64) {
	a, keys := benchAdaptive(b, frac)
	q := benchQueries(keys, 1<<18)
	s := warmSession(a, q)
	qv := make([]uint64, benchBatch)
	qf := make([]bool, benchBatch)
	b.ResetTimer()
	for i := 0; i < b.N; i += benchBatch {
		off := i & (len(q) - 1 - benchBatch)
		s.LookupBatch(q[off:off+benchBatch], qv, qf)
	}
}

func BenchmarkSessionLookupNoCache(b *testing.B) { benchmarkLookup(b, 0) }
func BenchmarkSessionLookupCache10(b *testing.B) { benchmarkLookup(b, 0.10) }
func BenchmarkLookupBatchNoCache(b *testing.B)   { benchmarkLookupBatch(b, 0) }
func BenchmarkLookupBatchCache10(b *testing.B)   { benchmarkLookupBatch(b, 0.10) }
