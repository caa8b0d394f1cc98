package btree

import (
	"testing"

	"ahi/internal/obs"
)

// Observability-overhead benchmarks. BenchmarkSessionLookupNoCache
// (cache_bench_test.go) is the no-obs baseline; the variants here attach
// an Observability bundle with tracing off and with the flight recorder
// sampling. CI compares ObsOff against the baseline within one run
// (benchgate -ratio) and fails the build past a 1% overhead budget.

// benchAdaptiveObs is benchAdaptive with an observability bundle
// attached; sampleEvery > 0 additionally enables the flight recorder at
// that sampling rate.
func benchAdaptiveObs(b *testing.B, sampleEvery int) (*Adaptive, []uint64) {
	b.Helper()
	keys, vals := benchKeySet()
	succ := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals).Bytes()
	gap := BulkLoad(Config{DefaultEncoding: EncGapped}, keys, vals).Bytes()
	budget := succ + (gap-succ)/16
	o := obs.New(0, 0)
	if sampleEvery > 0 {
		o.EnableTracing(obs.FlightConfig{SampleEvery: sampleEvery})
	}
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:         Config{DefaultEncoding: EncSuccinct},
		MemoryBudget: budget,
		InitialSkip:  8,
		MinSkip:      4,
		MaxSkip:      32,
		Obs:          o,
		ObsSource:    "bench",
	}, keys, vals)
	b.Cleanup(a.Close)
	return a, keys
}

func benchmarkLookupObs(b *testing.B, sampleEvery int) {
	a, keys := benchAdaptiveObs(b, sampleEvery)
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

// BenchmarkSessionLookupObsOff: metrics registered, flight recorder off —
// the disabled-tracing path whose only per-op cost is one nil check.
func BenchmarkSessionLookupObsOff(b *testing.B) { benchmarkLookupObs(b, 0) }

// BenchmarkSessionLookupTraced64 samples 1/64 ops into the recorder (the
// default rate); not gated, recorded for the overhead sweep.
func BenchmarkSessionLookupTraced64(b *testing.B) { benchmarkLookupObs(b, 64) }
