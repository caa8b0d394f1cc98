package cache

import (
	"math/rand"
	"sync"
	"testing"

	"ahi/internal/workload"
)

const (
	// benchCacheBytes is the cache share (10 %) of the memory budget the
	// 4 M-key point workloads of benchmark/ run under.
	benchCacheBytes = 6_270_000
	benchKeys       = 4 << 20
	streamLen       = 1 << 20 // Zipf draws, replayed cyclically
	// A polluted run walks a 64 MB buffer pollutionLines lines a key
	// between probes, sweeping all of it every 512 K keys, so the table's
	// lines leave the private caches as they would under the tree walks
	// that separate two probes of a serving loop.
	pollutionBytes = 64 << 20
	pollutionLines = 2
	batchKeys      = 128
)

var (
	benchOnce   sync.Once
	benchKeySeq []uint64 // Zipf(0.99) over benchKeys random keys
	pollution   []uint64
)

// benchData returns the shared access stream and pollution buffer,
// built once a process.
func benchData() ([]uint64, []uint64) {
	benchOnce.Do(func() {
		rng := rand.New(rand.NewSource(1))
		keys := make([]uint64, benchKeys)
		for i := range keys {
			keys[i] = rng.Uint64()
		}
		z := workload.NewZipf(benchKeys, 0.99, 2)
		benchKeySeq = make([]uint64, streamLen)
		for i := range benchKeySeq {
			benchKeySeq[i] = keys[z.Draw()]
		}
		pollution = make([]uint64, pollutionBytes/8)
		for i := range pollution {
			pollution[i] = uint64(i)
		}
	})
	return benchKeySeq, pollution
}

// probeRun drives one cache with the stream: probe, and on a miss a
// gated admission (every fourth miss may evict, as a session's admit gate
// lets it), optionally walking the pollution buffer before each probe or
// batch.
type probeRun struct {
	c        *Cache
	stream   []uint64
	buf      []uint64
	pos      int // next stream offset
	walk     int // next pollution word
	polluted bool
	tick     uint32
	hits     int
	sink     uint64
}

func newProbeRun(polluted bool) *probeRun {
	stream, buf := benchData()
	r := &probeRun{c: New(benchCacheBytes), stream: stream, buf: buf, polluted: polluted}
	for range len(stream) / batchKeys { // warm up on one pass of the stream
		r.batch()
	}
	r.hits = 0
	return r
}

func (r *probeRun) pollute(lines int) {
	for range lines {
		r.sink += r.buf[r.walk]
		if r.walk += 8; r.walk >= len(r.buf) {
			r.walk = 0
		}
	}
}

func (r *probeRun) admit(k, snap uint64) {
	r.tick++
	r.c.Admit(k, k, snap, false, r.tick&3 == 0)
}

// one probes the next key of the stream through ProbeOrSnap.
func (r *probeRun) one() {
	if r.polluted {
		r.pollute(pollutionLines)
	}
	k := r.stream[r.pos]
	if r.pos++; r.pos == len(r.stream) {
		r.pos = 0
	}
	if v, snap, ok := r.c.ProbeOrSnap(k); ok {
		r.sink += v
		r.hits++
	} else {
		r.admit(k, snap)
	}
}

// batch probes the next batchKeys keys of the stream the way a session's
// cached LookupBatch does: Touch first, then uncounted probes tallied
// once.
func (r *probeRun) batch() {
	if r.polluted {
		r.pollute(batchKeys * pollutionLines)
	}
	keys := r.stream[r.pos : r.pos+batchKeys]
	if r.pos += batchKeys; r.pos == len(r.stream) {
		r.pos = 0
	}
	r.sink += r.c.Touch(keys)
	hits := 0
	for _, k := range keys {
		if v, snap, ok := r.c.ProbeOrSnapUncounted(k); ok {
			r.sink += v
			hits++
		} else {
			r.admit(k, snap)
		}
	}
	r.c.AddProbes(int64(hits), int64(batchKeys-hits))
	r.hits += hits
}

// BenchmarkCacheProbe times one probe, and the gated admission a miss
// makes, over Zipf(0.99) draws of 4 M keys through a cache of the
// benchmark workloads' size: warm, and with the pollution walk between
// probes (whose loads the polluted figure includes).
func BenchmarkCacheProbe(b *testing.B) {
	benchModes(b, func(b *testing.B, r *probeRun) {
		for range b.N {
			r.one()
		}
		b.ReportMetric(float64(r.hits)/float64(b.N), "hit-rate")
	})
}

// BenchmarkCacheProbeBatch is BenchmarkCacheProbe in batches of 128 keys,
// the bucket-load pass (Touch) first; one op is one batch.
func BenchmarkCacheProbeBatch(b *testing.B) {
	benchModes(b, func(b *testing.B, r *probeRun) {
		for range b.N {
			r.batch()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batchKeys), "ns/key")
		b.ReportMetric(float64(r.hits)/float64(b.N*batchKeys), "hit-rate")
	})
}

// benchModes runs body on a warmed-up cache, warm and polluted.
func benchModes(b *testing.B, body func(*testing.B, *probeRun)) {
	for _, mode := range []string{"warm", "polluted"} {
		b.Run(mode, func(b *testing.B) {
			r := newProbeRun(mode == "polluted")
			b.ResetTimer()
			body(b, r)
		})
	}
}
