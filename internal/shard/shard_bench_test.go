package shard

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"ahi/internal/btree"
	"ahi/internal/workload"
)

// benchSharded bulk-loads 2^20 keys; workers 0 is the default pool,
// 1 keeps every segment on the caller.
func benchSharded(b *testing.B, shards, workers int) (*ShardedBTree, []uint64) {
	b.Helper()
	n := 1 << 20
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 5
		vals[i] = uint64(i)
	}
	cfg := Config{Shards: shards, Workers: workers, Adaptive: btree.AdaptiveConfig{
		Tree: btree.Config{DefaultEncoding: btree.EncSuccinct},
	}}
	s := BulkLoad(cfg, keys, vals)
	b.Cleanup(s.Close)
	return s, keys
}

func benchLookups(b *testing.B, shards, batch int) {
	s, keys := benchSharded(b, shards, 1)
	d := workload.NewZipf(len(keys), 1.1, 7)
	q := make([]uint64, 512)
	qv := make([]uint64, batch)
	qf := make([]bool, batch)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i += len(q) {
		b.StopTimer()
		for j := range q {
			q[j] = keys[d.Draw()]
		}
		b.StartTimer()
		if batch == 1 {
			for _, k := range q {
				v, _ := s.Lookup(k)
				sink += v
			}
		} else {
			for off := 0; off < len(q); off += batch {
				s.LookupBatch(q[off:off+batch], qv, qf)
			}
		}
	}
	_ = sink
}

func BenchmarkShardLookup1(b *testing.B)    { benchLookups(b, 1, 1) }
func BenchmarkShardLookup32(b *testing.B)   { benchLookups(b, 1, 32) }
func BenchmarkShardLookup128(b *testing.B)  { benchLookups(b, 1, 128) }
func BenchmarkShard4Lookup128(b *testing.B) { benchLookups(b, 4, 128) }

// BenchmarkShard4LookupBatchParallel is the serve-shift shape: GOMAXPROCS
// callers, 128-key batches, 99 % of the keys in one shard's 1 % hot range.
// One op is one batch.
func BenchmarkShard4LookupBatchParallel(b *testing.B) {
	s, keys := benchSharded(b, 4, 0)
	var seeds atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		hot := workload.NewHotSet(len(keys), len(keys)*3/8, 0.01, 0.99, seeds.Add(1))
		q := make([]uint64, 1<<14)
		for i := range q {
			q[i] = keys[hot.Draw()]
		}
		qv, qf := make([]uint64, 128), make([]bool, 128)
		for off := 0; pb.Next(); off = (off + 128) % len(q) {
			s.LookupBatch(q[off:off+128], qv, qf)
		}
	})
}

// benchFanOut times one caller's uniform batches over 4 shards with the
// default pool: segments of batch/4 keys, below fanOutMinKeys at 128 and
// above it at 1024. One op is one key.
func benchFanOut(b *testing.B, batch int) {
	s, keys := benchSharded(b, 4, 0)
	rng := rand.New(rand.NewSource(5))
	q := make([]uint64, 1<<16)
	for i := range q {
		q[i] = keys[rng.Intn(len(keys))]
	}
	qv, qf := make([]uint64, batch), make([]bool, batch)
	b.ResetTimer()
	for i, off := 0, 0; i < b.N; i, off = i+batch, (off+batch)%len(q) {
		s.LookupBatch(q[off:off+batch], qv, qf)
	}
}

func BenchmarkShard4FanOut128(b *testing.B)  { benchFanOut(b, 128) }
func BenchmarkShard4FanOut1024(b *testing.B) { benchFanOut(b, 1024) }
