package core

import (
	"sync"
	"testing"
	"time"

	"ahi/internal/hashmap"
)

// Additional manager behaviour tests beyond core_test.go's workload-driven
// scenarios: parameter clamps, access-type accounting, context updates in
// GS mode, and sampler lifecycle edges.

func TestMaxSampleSizeClamps(t *testing.T) {
	ix := newMockIndex(1_000_000) // Eq.(1) would want a huge sample here
	cfg := ix.config(TLS)
	cfg.MaxSampleSize = 500
	m := New(cfg)
	if m.SampleSize() > 500 {
		t.Fatalf("sample size %d exceeds cap", m.SampleSize())
	}
	// A floor keeps degenerate indexes from adapting on every access.
	ix2 := newMockIndex(1)
	cfg2 := ix2.config(TLS)
	m2 := New(cfg2)
	if m2.SampleSize() < 64 {
		t.Fatalf("sample size %d below floor", m2.SampleSize())
	}
}

// TestFlushRetiresSampler: a caller that takes one sampler per request
// and flushes it afterwards — what a session per request does on a plain
// tree — leaves neither framework bytes nor merge-quota divisor behind.
// After 10 000 such samplers, Bytes is back near its one-sampler value and
// the one sampler still live merges at the full sample size again.
func TestFlushRetiresSampler(t *testing.T) {
	ix := newMockIndex(64)
	m := New(ix.config(TLS))
	one := m.NewSampler()
	for i := 0; i < 3; i++ {
		one.Track(i, Read, struct{}{})
	}
	base := m.Bytes()
	for r := 0; r < 10_000; r++ {
		s := m.NewSampler()
		for i := 0; i < 3; i++ {
			s.Track(r%64, Read, struct{}{})
		}
		s.Flush()
	}
	if got := m.Bytes(); got > base*11/10 || got < base*9/10 {
		t.Fatalf("Bytes = %d after 10 000 flushed samplers, one live one read %d", got, base)
	}
	if n := m.samplers.Load(); n != 1 {
		t.Fatalf("%d samplers registered, want the one live: its quota is the sample size over that", n)
	}
	// The live sampler tracks less than a sample of one unit: below its
	// quota it keeps every sample local.
	sampled := m.sampled.Load()
	for i := 0; i < m.SampleSize()/2; i++ {
		one.Track(5, Read, struct{}{})
	}
	if got := m.sampled.Load(); got != sampled {
		t.Fatalf("half a sample merged %d samples early", got-sampled)
	}
	// A flushed sampler that tracks again counts again.
	one.Flush()
	if n := m.samplers.Load(); n != 0 {
		t.Fatalf("%d samplers registered after the last flush", n)
	}
	one.Track(5, Read, struct{}{})
	if n := m.samplers.Load(); n != 1 {
		t.Fatalf("%d samplers registered after tracking again, want 1", n)
	}
}

func TestScanAccessesCountAsReads(t *testing.T) {
	ix := newMockIndex(16)
	cfg := ix.config(TLS)
	cfg.DisableBloom = true
	m := New(cfg)
	s := m.NewSampler()
	s.Track(3, Scan, struct{}{})
	s.Track(3, Read, struct{}{})
	s.Track(3, Insert, struct{}{})
	s.Flush()
	found := false
	// Inspect via the store the TLS samplers merge into.
	m.mergeMu.Lock()
	if e := m.local.Ref(3); e != nil {
		found = true
		if e.stats.Reads != 2 || e.stats.Writes != 1 {
			t.Fatalf("reads=%d writes=%d", e.stats.Reads, e.stats.Writes)
		}
	}
	m.mergeMu.Unlock()
	if !found {
		t.Fatal("unit not tracked")
	}
}

func TestEpochResetsCounters(t *testing.T) {
	ix := newMockIndex(64)
	cfg := ix.config(TLS)
	cfg.DisableBloom = true
	cfg.MaxSampleSize = 64 // minimum: adapt quickly
	m := New(cfg)
	s := m.NewSampler()
	for i := 0; i < 64; i++ {
		s.Track(5, Read, struct{}{}) // fills a whole phase with unit 5
	}
	epoch := m.Epoch()
	if epoch == 0 {
		t.Fatal("no adaptation after a full sample")
	}
	// Track in the new epoch: counters must restart, not accumulate.
	s.Track(5, Read, struct{}{})
	s.Flush()
	m.mergeMu.Lock()
	e := m.local.Ref(5)
	if e == nil {
		t.Fatal("unit evicted unexpectedly")
	}
	if e.stats.Reads != 1 {
		t.Fatalf("stale counters survived the epoch: reads=%d", e.stats.Reads)
	}
	if e.stats.LastEpoch != epoch {
		t.Fatalf("epoch not updated: %d vs %d", e.stats.LastEpoch, epoch)
	}
	m.mergeMu.Unlock()
}

func TestGSUpdateContextAndForget(t *testing.T) {
	type ctx struct{ parent int }
	ix := newMockIndex(8)
	cfg := Config[int, ctx]{
		Hash:         func(id int) uint64 { return hashmap.HashU64(uint64(id)) },
		Units:        ix.units,
		UsedMemory:   ix.usedMemory,
		Heuristic:    func(int, *ctx, *Stats, Env) Action { return Action{} },
		Migrate:      func(id int, _ ctx, _ Encoding) (int, bool) { return id, false },
		Mode:         GS,
		DisableBloom: true,
	}
	m := New(cfg)
	s := m.NewSampler()
	s.Track(1, Read, ctx{parent: 7})
	m.UpdateContext(1, ctx{parent: 9})
	m.UpdateContext(2, ctx{parent: 1}) // untracked: must not create
	if m.TrackedUnits() != 1 {
		t.Fatalf("tracked=%d", m.TrackedUnits())
	}
	m.Forget(1)
	if m.TrackedUnits() != 0 {
		t.Fatal("Forget in GS mode failed")
	}
}

// TestTLSMergeQuota: a TLS sampler merges after ⌈sample size ÷ samplers
// handed out⌉ samples, and the phase completes at the first merge that
// brings the merged samples to the sample size — for a lone sampler, at
// exactly the sample size.
func TestTLSMergeQuota(t *testing.T) {
	for _, samplers := range []int{1, 3} {
		ix := newMockIndex(8)
		cfg := ix.config(TLS)
		cfg.DisableBloom = true
		cfg.MaxSampleSize = 64 // the minimum: the sample size is 64
		m := New(cfg)
		s := m.NewSampler()
		for i := 1; i < samplers; i++ {
			m.NewSampler() // handed out, never used
		}
		quota := (64 + samplers - 1) / samplers
		phase := (64 + quota - 1) / quota * quota
		for i := 1; i <= phase; i++ {
			s.Track(i%8, Read, struct{}{})
			if merged := m.TrackedUnits() > 0 || m.Epoch() > 0; merged != (i >= quota) {
				t.Fatalf("%d samplers: after %d samples merged=%v, quota %d", samplers, i, merged, quota)
			}
			if adapted := m.Epoch() > 0; adapted != (i == phase) {
				t.Fatalf("%d samplers: after %d samples adapted=%v, want a phase at %d", samplers, i, adapted, phase)
			}
		}
	}
}

func TestTLSFlushIdempotent(t *testing.T) {
	ix := newMockIndex(32)
	cfg := ix.config(TLS)
	cfg.DisableBloom = true
	m := New(cfg)
	s := m.NewSampler()
	s.Flush() // nothing buffered: no-op
	s.Track(4, Read, struct{}{})
	s.Flush()
	s.Flush() // second flush must not double-count
	if m.TrackedUnits() != 1 {
		t.Fatalf("tracked=%d", m.TrackedUnits())
	}
}

func TestSamplerPerGoroutineIndependence(t *testing.T) {
	ix := newMockIndex(128)
	cfg := ix.config(GS)
	cfg.AdaptiveSkip = false
	cfg.InitialSkip = 9
	m := New(cfg)
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := m.NewSampler()
			for i := 0; i < 1000; i++ {
				if s.IsSample() {
					counts[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w, c := range counts {
		if c < 95 || c > 105 { // 1000 / (skip 9 + 1)
			t.Fatalf("worker %d sampled %d of 1000 at skip 9", w, c)
		}
	}
}

func TestCustomEpsilonShrinksSample(t *testing.T) {
	ix := newMockIndex(10_000)
	loose := ix.config(TLS)
	loose.Epsilon, loose.Delta = 0.2, 0.2
	tight := ix.config(TLS)
	tight.Epsilon, tight.Delta = 0.02, 0.02
	if New(loose).SampleSize() >= New(tight).SampleSize() {
		t.Fatal("looser bounds must yield smaller samples")
	}
}

func TestSampleOffsetsMatchesIsSample(t *testing.T) {
	// SampleOffsets is the batched form of IsSample: over any chunking of
	// the same access stream, both must pick exactly the same positions.
	mk := func() *Sampler[int, struct{}] {
		ix := newMockIndex(64)
		cfg := ix.config(TLS)
		cfg.InitialSkip = 7
		cfg.AdaptiveSkip = false
		return New(cfg).NewSampler()
	}
	const total = 1000
	ref := mk()
	var want []int
	for i := 0; i < total; i++ {
		if ref.IsSample() {
			want = append(want, i)
		}
	}
	for _, chunk := range []int{1, 3, 64, 250, total} {
		got := make([]int, 0, len(want))
		s := mk()
		for base := 0; base < total; base += chunk {
			n := chunk
			if rem := total - base; rem < n {
				n = rem
			}
			for _, off := range s.SampleOffsets(n, nil) {
				got = append(got, base+off)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("chunk %d: %d samples, want %d", chunk, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: sample %d at %d, want %d", chunk, i, got[i], want[i])
			}
		}
	}
}

func TestSampleOffsetsEdgeCases(t *testing.T) {
	ix := newMockIndex(64)
	cfg := ix.config(TLS)
	cfg.InitialSkip = 100
	cfg.AdaptiveSkip = false
	s := New(cfg).NewSampler()

	// n = 0 must not consume skip state nor touch dst.
	dst := []int{42}
	if got := s.SampleOffsets(0, dst); len(got) != 1 || got[0] != 42 {
		t.Fatalf("n=0 mutated dst: %v", got)
	}
	// The counter starts at the global skip (100), far larger than the
	// batch (10): the first batches are all empty, and the counter must
	// carry across batch boundaries.
	if got := s.SampleOffsets(1, nil); len(got) != 0 {
		t.Fatalf("access during initial skip sampled: %v", got)
	}
	for b := 0; b < 9; b++ {
		if got := s.SampleOffsets(10, nil); len(got) != 0 {
			t.Fatalf("batch %d: unexpected samples %v during skip run", b, got)
		}
	}
	// 91 accesses consumed; the 100-skip expires 9 accesses into the next
	// batch, making its offset 9 the first sample.
	if got := s.SampleOffsets(10, nil); len(got) != 1 || got[0] != 9 {
		t.Fatalf("post-skip sample misplaced: %v", got)
	}
	// A batch spanning several skip windows yields several samples.
	if got := s.SampleOffsets(205, nil); len(got) != 2 || got[0] != 100 || got[1] != 201 {
		t.Fatalf("spanning batch samples = %v, want [100 201]", got)
	}
}

func TestStoreStatsConsistentUnderConcurrentForget(t *testing.T) {
	// Satellite regression: Bytes()/TrackedUnits() used to take two
	// separate passes over the shared store, so a Forget between them
	// produced (units, bytes) pairs no single moment ever exhibited.
	// StoreStats reads both in one pass; this hammers it under -race.
	ix := newMockIndex(4096)
	cfg := ix.config(GS)
	cfg.DisableBloom = true
	m := New(cfg)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			s := m.NewSampler()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.Track((seed*31+i)%4096, Read, struct{}{})
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			m.Forget(i % 4096)
		}
	}()
	deadline := time.After(200 * time.Millisecond)
	for done := false; !done; {
		select {
		case <-deadline:
			done = true
		default:
			units, bytes := m.StoreStats()
			if units < 0 || bytes < 0 {
				t.Fatalf("negative snapshot: units=%d bytes=%d", units, bytes)
			}
			if m.TrackedUnits() < 0 || m.Bytes() < 0 {
				t.Fatal("negative accessor result")
			}
		}
	}
	close(stop)
	wg.Wait()
}
