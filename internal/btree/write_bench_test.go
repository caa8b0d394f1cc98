package btree

import (
	"sort"
	"testing"

	"ahi/internal/core"
)

// Write-path benchmarks: single-key overwrites and insert+delete pairs
// with random keys over a 1 M-key bulk-loaded tree of one encoding (no
// eager expansion, so the encoding under test is the one written). They
// back the CI ns/op regression gate next to the read-path benchmarks.

const writeBenchKeys = 1 << 20

// writeBenchTree bulk-loads random even keys (wide deltas, like
// benchKeySet) in encoding enc and returns the tree plus the keys in a
// random probe order; key|1 is a key the tree does not hold.
func writeBenchTree(enc core.Encoding) (*Tree, []uint64) {
	keys := make([]uint64, 0, writeBenchKeys)
	var x uint64 = 0x9e3779b97f4a7c15
	for len(keys) < writeBenchKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys = append(keys, x&^1)
	}
	probe := append([]uint64(nil), keys...)
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	return BulkLoad(Config{DefaultEncoding: enc}, keys, vals), probe
}

func benchOverwrite(b *testing.B, enc core.Encoding) {
	t, probe := writeBenchTree(enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Insert(probe[i&(writeBenchKeys-1)], uint64(i)&(writeBenchKeys-1))
	}
}

func BenchmarkOverwriteSuccinct(b *testing.B) { benchOverwrite(b, EncSuccinct) }
func BenchmarkOverwritePacked(b *testing.B)   { benchOverwrite(b, EncPacked) }
func BenchmarkOverwriteGapped(b *testing.B)   { benchOverwrite(b, EncGapped) }

// cachedOverwriteKeys is the hot set of BenchmarkOverwriteCached*: keys
// the result cache holds for the whole run.
const cachedOverwriteKeys = 4096

// benchOverwriteCached times Session.Insert overwrites of keys the result
// cache holds, so each one stores its value into the key's held way after
// the tree publish. Sampling is out of reach: no adaptation runs.
func benchOverwriteCached(b *testing.B, enc core.Encoding) {
	t, probe := writeBenchTree(enc)
	a := NewGroup(AdaptiveConfig{
		Tree:          Config{DefaultEncoding: enc},
		InitialSkip:   1 << 30,
		FixedSkip:     true,
		MemoryBudget:  4 << 20,
		CacheFraction: 0.25, // 1 MB: 16 K buckets for 4 K keys
	}, []*Tree{t}, nil)[0]
	b.Cleanup(a.Close)
	hot := probe[:cachedOverwriteKeys]
	s := a.NewSession()
	for _, k := range hot {
		s.Lookup(k)
	}
	if n := t.rcache.Len(); n < len(hot)*9/10 {
		b.Fatalf("the cache holds %d of %d keys", n, len(hot))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Insert(hot[i&(cachedOverwriteKeys-1)], uint64(i))
	}
}

func BenchmarkOverwriteCachedSuccinct(b *testing.B) { benchOverwriteCached(b, EncSuccinct) }
func BenchmarkOverwriteCachedGapped(b *testing.B)   { benchOverwriteCached(b, EncGapped) }

// benchInsertDelete times one insert of a fresh key plus its delete.
func benchInsertDelete(b *testing.B, enc core.Encoding) {
	t, probe := writeBenchTree(enc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := probe[i&(writeBenchKeys-1)] | 1
		t.Insert(k, uint64(i))
		t.Delete(k)
	}
}

func BenchmarkInsertDeleteSuccinct(b *testing.B) { benchInsertDelete(b, EncSuccinct) }
func BenchmarkInsertDeleteGapped(b *testing.B)   { benchInsertDelete(b, EncGapped) }

// BenchmarkDeleteSuccinct times one delete of a present key, the delete
// half of BenchmarkInsertDeleteSuccinct on its own. The tree is rebuilt
// off the clock once half of its keys are gone, so it never holds fewer
// than half of them.
func BenchmarkDeleteSuccinct(b *testing.B) {
	t, probe := writeBenchTree(EncSuccinct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % (writeBenchKeys / 2)
		if j == 0 && i > 0 {
			b.StopTimer()
			t, _ = writeBenchTree(EncSuccinct)
			b.StartTimer()
		}
		t.Delete(probe[j])
	}
}

// TestWriteAllocs bounds what an overwrite allocates on every encoding:
// on Succinct the leaf box, the payload header and the new values — no
// clone of the keys and no heap-allocated descent stack; Gapped and Packed
// store in place and allocate nothing (TestOverwriteZeroAlloc).
func TestWriteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys, vals := sortedPairs(4096, 21)
	for _, enc := range allEncodings() {
		tr := BulkLoad(Config{DefaultEncoding: enc}, keys, vals)
		i := 0
		got := testing.AllocsPerRun(500, func() {
			tr.Insert(keys[(i*37)%len(keys)], vals[i%len(vals)])
			i++
		})
		if got > 4 {
			t.Errorf("%s: overwrite allocates %.1f objects, want <= 4", EncodingName(enc), got)
		}
	}
}

// TestDeleteAllocs bounds what a delete allocates on every encoding: the
// leaf box, the payload header and the two new arrays (on Succinct the
// packed words FORArray.WithoutAt shifts into).
func TestDeleteAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys, vals := sortedPairs(4096, 22)
	for _, enc := range allEncodings() {
		tr := BulkLoad(Config{DefaultEncoding: enc}, keys, vals)
		i := 0
		got := testing.AllocsPerRun(500, func() {
			if !tr.Delete(keys[(i*37)%len(keys)]) {
				t.Fatalf("%s: delete %d found nothing", EncodingName(enc), i)
			}
			i++
		})
		if got > 4 {
			t.Errorf("%s: delete allocates %.1f objects, want <= 4", EncodingName(enc), got)
		}
	}
}
