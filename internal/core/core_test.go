package core

import (
	"math/rand"
	"sync"
	"testing"

	"ahi/internal/hashmap"
	"ahi/internal/workload"
)

// mockIndex is a minimal hybrid "index": units are integers 0..n-1, each
// either compressed (encoding 0) or expanded (encoding 1). It implements
// the callback surface the manager requires and records migrations.
type mockIndex struct {
	mu        sync.Mutex
	expanded  []bool
	unitCost  [2]int64 // bytes per compressed / expanded unit
	migrated  int
	expansion int
	compact   int
}

func newMockIndex(n int) *mockIndex {
	return &mockIndex{expanded: make([]bool, n), unitCost: [2]int64{10, 100}}
}

func (ix *mockIndex) units() UnitCounts {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var nu int64
	for _, e := range ix.expanded {
		if e {
			nu++
		}
	}
	return UnitCounts{
		Compressed:      int64(len(ix.expanded)) - nu,
		Uncompressed:    nu,
		CompressedAvg:   ix.unitCost[0],
		UncompressedAvg: ix.unitCost[1],
	}
}

func (ix *mockIndex) usedMemory() int64 {
	u := ix.units()
	return u.Compressed*ix.unitCost[0] + u.Uncompressed*ix.unitCost[1]
}

func (ix *mockIndex) heuristic(id int, _ *struct{}, st *Stats, env Env) Action {
	ix.mu.Lock()
	exp := ix.expanded[id]
	ix.mu.Unlock()
	if env.Hot && !exp && env.BudgetRemaining > ix.unitCost[1] {
		return Action{Target: 1, Migrate: true}
	}
	if !env.Hot && exp {
		return Action{Target: 0, Migrate: true}
	}
	if !env.Hot && st.HotCount() == 0 && st.HistoryLen >= 4 {
		return Action{Evict: true}
	}
	return Action{}
}

func (ix *mockIndex) migrate(id int, _ struct{}, target Encoding) (int, bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	want := target == 1
	if ix.expanded[id] == want {
		return id, false
	}
	ix.expanded[id] = want
	ix.migrated++
	if want {
		ix.expansion++
	} else {
		ix.compact++
	}
	return id, true
}

func (ix *mockIndex) config(mode ConcurrencyMode) Config[int, struct{}] {
	return Config[int, struct{}]{
		Hash:         func(id int) uint64 { return hashmap.HashU64(uint64(id)) },
		Units:        ix.units,
		UsedMemory:   ix.usedMemory,
		Heuristic:    ix.heuristic,
		Migrate:      ix.migrate,
		Mode:         mode,
		InitialSkip:  4,
		MinSkip:      2,
		MaxSkip:      64,
		AdaptiveSkip: true,
	}
}

func (ix *mockIndex) expandedCount() int {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, e := range ix.expanded {
		if e {
			n++
		}
	}
	return n
}

func (ix *mockIndex) isExpanded(i int) bool {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.expanded[i]
}

func TestStatsHistory(t *testing.T) {
	var s Stats
	s.PushClassification(true)
	s.PushClassification(true)
	s.PushClassification(false)
	s.PushClassification(true)
	if s.HotStreak() != 1 {
		t.Fatalf("HotStreak=%d", s.HotStreak())
	}
	if s.HotCount() != 3 {
		t.Fatalf("HotCount=%d", s.HotCount())
	}
	for i := 0; i < 20; i++ {
		s.PushClassification(true)
	}
	if s.HistoryLen != 8 || s.HotStreak() != 8 {
		t.Fatalf("history must cap at 8: len=%d streak=%d", s.HistoryLen, s.HotStreak())
	}
}

func TestStatsCount(t *testing.T) {
	var s Stats
	s.Count(Read)
	s.Count(Scan)
	s.Count(Insert)
	s.Count(Update)
	s.Count(Delete)
	if s.Reads != 2 || s.Writes != 3 {
		t.Fatalf("reads=%d writes=%d", s.Reads, s.Writes)
	}
	if s.Freq() != 5 {
		t.Fatalf("freq=%d", s.Freq())
	}
}

func TestAccessTypeString(t *testing.T) {
	for a, want := range map[AccessType]string{Read: "read", Scan: "scan", Insert: "insert", Update: "update", Delete: "delete", AccessType(99): "unknown"} {
		if a.String() != want {
			t.Fatalf("%d -> %q", a, a.String())
		}
	}
}

func TestManagerRequiresCallbacks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on missing callbacks")
		}
	}()
	New(Config[int, struct{}]{})
}

// driveSkewed sends a Zipfian access pattern over n units through a
// sampler, sampling every access (skip handled by IsSample).
func driveSkewed(m *Manager[int, struct{}], n, ops int, seed int64) {
	s := m.NewSampler()
	z := workload.NewZipf(n, 1.2, seed)
	for i := 0; i < ops; i++ {
		if s.IsSample() {
			s.Track(z.Draw(), Read, struct{}{})
		}
	}
	s.Flush()
}

func TestLoneSamplerAdaptationExpandsHotUnits(t *testing.T) {
	const n = 1000
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.MemoryBudget = 10*int64(n) + 100*100 // room for ~100 expansions
	var adapts []AdaptInfo
	cfg.OnAdapt = func(ai AdaptInfo) { adapts = append(adapts, ai) }
	m := New(cfg)
	driveSkewed(m, n, 2_000_000, 1)
	if len(adapts) == 0 {
		t.Fatal("no adaptation ran")
	}
	if m.Migrations() == 0 {
		t.Fatal("no migrations happened")
	}
	// The hottest units must be expanded, cold tail not.
	if !ix.isExpanded(0) || !ix.isExpanded(1) {
		t.Fatal("hottest units were not expanded")
	}
	exp := ix.expandedCount()
	if exp == 0 || exp > 110 {
		t.Fatalf("expanded=%d want within budget (~100)", exp)
	}
	cold := 0
	for i := n / 2; i < n; i++ {
		if ix.isExpanded(i) {
			cold++
		}
	}
	if cold > exp/4 {
		t.Fatalf("too many cold units expanded: %d of %d", cold, exp)
	}
}

func TestBudgetIsRespected(t *testing.T) {
	const n = 500
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	budget := int64(n)*10 + 20*100
	cfg.MemoryBudget = budget
	m := New(cfg)
	driveSkewed(m, n, 1_000_000, 2)
	if used := ix.usedMemory(); used > budget+100 { // one unit of slack
		t.Fatalf("memory %d exceeds budget %d", used, budget)
	}
}

func TestColdReclassificationCompacts(t *testing.T) {
	const n = 400
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.MemoryBudget = int64(n)*10 + 40*100
	m := New(cfg)
	// Phase A: heat the low range.
	s := m.NewSampler()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500_000; i++ {
		if s.IsSample() {
			s.Track(rng.Intn(20), Read, struct{}{})
		}
	}
	if ix.expandedCount() == 0 {
		t.Fatal("phase A expanded nothing")
	}
	expandedLow := ix.isExpanded(0) || ix.isExpanded(1)
	if !expandedLow {
		t.Fatal("hot range not expanded in phase A")
	}
	// Phase B: shift heat to the high range; the low range must compact.
	for i := 0; i < 2_000_000; i++ {
		if s.IsSample() {
			s.Track(380+rng.Intn(20), Read, struct{}{})
		}
	}
	lowStillExpanded := 0
	for i := 0; i < 20; i++ {
		if ix.isExpanded(i) {
			lowStillExpanded++
		}
	}
	if lowStillExpanded > 5 {
		t.Fatalf("%d stale expansions survived the phase shift", lowStillExpanded)
	}
	if !ix.isExpanded(380) && !ix.isExpanded(390) {
		t.Fatal("new hot range not expanded")
	}
	if ix.compact == 0 {
		t.Fatal("no compactions recorded")
	}
}

func TestAdaptiveSkipMoves(t *testing.T) {
	const n = 200
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	m := New(cfg)
	initial := m.SkipLength()
	// A stable workload (no migrations after warm-up) must grow the skip.
	driveSkewed(m, n, 3_000_000, 7)
	if m.SkipLength() <= initial {
		t.Fatalf("skip did not grow under stable workload: %d -> %d", initial, m.SkipLength())
	}
	if m.SkipLength() > cfg.MaxSkip {
		t.Fatalf("skip exceeded max: %d", m.SkipLength())
	}
}

// TestHotSetShiftResetsSkip: a hot range sampled until the skip sits at
// MaxSkip keeps it there, and the first phase after the range moves to
// units the manager never tracked sets it back to MinSkip. The moved
// range's migrations are a few percent of a phase's samples, so the churn
// rule alone would have doubled the skip again.
func TestHotSetShiftResetsSkip(t *testing.T) {
	const n = 400
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.MemoryBudget = int64(n)*10 + 40*100
	cfg.MaxSampleSize = 1024
	var adapts []AdaptInfo
	cfg.OnAdapt = func(ai AdaptInfo) { adapts = append(adapts, ai) }
	m := New(cfg)
	s := m.NewSampler()
	rng := rand.New(rand.NewSource(5))
	// phase samples units [lo, lo+20) until one more phase has ended.
	phase := func(lo int) AdaptInfo {
		for end := len(adapts) + 1; len(adapts) < end; {
			if s.IsSample() {
				s.Track(lo+rng.Intn(20), Read, struct{}{})
			}
		}
		return adapts[len(adapts)-1]
	}
	atMax := 0
	for i := 0; atMax < 2; i++ {
		if i == 20 {
			t.Fatalf("skip %d after 20 phases of one range, want %d", m.SkipLength(), cfg.MaxSkip)
		}
		if phase(0).NewSkip == cfg.MaxSkip {
			atMax++
		} else if atMax > 0 {
			t.Fatalf("a phase of the same range moved the skip from MaxSkip to %d", m.SkipLength())
		}
	}
	if ai := phase(380); ai.NewSkip != cfg.MinSkip {
		t.Fatalf("phase after the jump set the skip to %d (migrations %d of %d samples), want %d",
			ai.NewSkip, ai.Migrations, ai.SampledTotal, cfg.MinSkip)
	}
	if ai := phase(380); ai.NewSkip <= cfg.MinSkip {
		t.Fatalf("a second phase of the new range kept the skip at %d", ai.NewSkip)
	}
}

func TestFixedSkipStaysPut(t *testing.T) {
	ix := newMockIndex(100)
	cfg := ix.config(TLS)
	cfg.AdaptiveSkip = false
	cfg.InitialSkip = 7
	m := New(cfg)
	driveSkewed(m, 100, 500_000, 9)
	if m.SkipLength() != 7 {
		t.Fatalf("fixed skip moved to %d", m.SkipLength())
	}
}

func TestSamplerSkipCadence(t *testing.T) {
	ix := newMockIndex(10)
	cfg := ix.config(TLS)
	cfg.AdaptiveSkip = false
	cfg.InitialSkip = 4
	m := New(cfg)
	s := m.NewSampler()
	samples := 0
	const ops = 1000
	for i := 0; i < ops; i++ {
		if s.IsSample() {
			samples++
		}
	}
	want := ops / 5 // skip 4 => every 5th access
	if samples < want-2 || samples > want+2 {
		t.Fatalf("samples=%d want ~%d", samples, want)
	}
}

func TestBloomFilterSuppressesOneOffs(t *testing.T) {
	const n = 10000
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.InitialSkip = 0
	cfg.AdaptiveSkip = false
	cfg.MaxSampleSize = 1 << 20
	m := New(cfg)
	s := m.NewSampler()
	// Each unit accessed exactly once: nothing should enter the map.
	for i := 0; i < 2000; i++ {
		s.Track(i, Read, struct{}{})
	}
	s.Flush()
	if got := m.TrackedUnits(); got != 0 {
		t.Fatalf("one-off accesses tracked: %d", got)
	}
	// Re-seen units do get tracked.
	for i := 0; i < 2000; i++ {
		s.Track(i%5, Read, struct{}{})
	}
	s.Flush()
	if got := m.TrackedUnits(); got == 0 || got > 5 {
		t.Fatalf("tracked=%d want 1..5", got)
	}
}

func TestDisableBloomTracksImmediately(t *testing.T) {
	ix := newMockIndex(100)
	cfg := ix.config(TLS)
	cfg.DisableBloom = true
	m := New(cfg)
	s := m.NewSampler()
	s.Track(1, Read, struct{}{})
	s.Flush()
	if m.TrackedUnits() != 1 {
		t.Fatal("tracking with disabled filter must be immediate")
	}
}

func TestForgetAndUpdateContext(t *testing.T) {
	type ctx struct{ parent int }
	ix := newMockIndex(10)
	cfg := Config[int, ctx]{
		Hash:         func(id int) uint64 { return hashmap.HashU64(uint64(id)) },
		Units:        ix.units,
		UsedMemory:   ix.usedMemory,
		Heuristic:    func(int, *ctx, *Stats, Env) Action { return Action{} },
		Migrate:      func(id int, _ ctx, _ Encoding) (int, bool) { return id, false },
		DisableBloom: true,
	}
	m := New(cfg)
	s := m.NewSampler()
	s.Track(3, Read, ctx{parent: 7})
	s.Flush()
	m.UpdateContext(3, ctx{parent: 9})
	m.UpdateContext(4, ctx{parent: 1}) // untracked: no-op, must not create
	if m.TrackedUnits() != 1 {
		t.Fatalf("tracked=%d", m.TrackedUnits())
	}
	m.Forget(3)
	if m.TrackedUnits() != 0 {
		t.Fatal("Forget failed")
	}
}

func TestTrainOffline(t *testing.T) {
	const n = 300
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.MemoryBudget = int64(n)*10 + 30*100
	m := New(cfg)
	freqs := make([]IDFreq[int, struct{}], n)
	for i := 0; i < n; i++ {
		freqs[i] = IDFreq[int, struct{}]{ID: i, Freq: uint64(n - i)}
	}
	migs := m.TrainOffline(freqs)
	if migs == 0 {
		t.Fatal("offline training migrated nothing")
	}
	// The hottest (lowest ids) must be expanded, within budget.
	if !ix.isExpanded(0) || !ix.isExpanded(5) {
		t.Fatal("top-ranked units not expanded")
	}
	if ix.isExpanded(n - 1) {
		t.Fatal("cold unit expanded")
	}
	if used := ix.usedMemory(); used > cfg.MemoryBudget+100 {
		t.Fatalf("training blew budget: %d > %d", used, cfg.MemoryBudget)
	}
}

func TestRelativeBudget(t *testing.T) {
	const n = 100
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.RelativeBudget = 0.2 // 20% of all-expanded (100*100) = 2000 bytes
	m := New(cfg)
	driveSkewed(m, n, 1_000_000, 4)
	if used := ix.usedMemory(); used > 2100 {
		t.Fatalf("relative budget exceeded: %d", used)
	}
}

func TestGSConcurrentAdaptation(t *testing.T) {
	const n = 2000
	ix := newMockIndex(n)
	cfg := ix.config(GS)
	cfg.MemoryBudget = int64(n)*10 + 50*100
	m := New(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			driveSkewed(m, n, 500_000, int64(w+1))
		}(w)
	}
	wg.Wait()
	if m.Adaptations() == 0 {
		t.Fatal("no adaptations under GS")
	}
	if !ix.isExpanded(0) {
		t.Fatal("hottest unit not expanded under GS")
	}
	if used := ix.usedMemory(); used > cfg.MemoryBudget+300 {
		t.Fatalf("GS blew budget: %d > %d", used, cfg.MemoryBudget)
	}
}

func TestTLSConcurrentAdaptation(t *testing.T) {
	const n = 2000
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	cfg.MemoryBudget = int64(n)*10 + 50*100
	m := New(cfg)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			driveSkewed(m, n, 500_000, int64(w+1))
		}(w)
	}
	wg.Wait()
	if m.Adaptations() == 0 {
		t.Fatal("no adaptations under TLS")
	}
	if !ix.isExpanded(0) {
		t.Fatal("hottest unit not expanded under TLS")
	}
}

func TestManagerBytesNonZero(t *testing.T) {
	ix := newMockIndex(100)
	m := New(ix.config(TLS))
	_ = m.NewSampler()
	if m.Bytes() <= 0 {
		t.Fatal("sampling framework must report its footprint")
	}
}

func TestEvictionsRemoveStaleUnits(t *testing.T) {
	const n = 100
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	m := New(cfg)
	s := m.NewSampler()
	rng := rand.New(rand.NewSource(11))
	// Heat a range, then abandon it entirely for many phases.
	for i := 0; i < 300_000; i++ {
		if s.IsSample() {
			s.Track(rng.Intn(10), Read, struct{}{})
		}
	}
	trackedAfterHot := m.TrackedUnits()
	if trackedAfterHot == 0 {
		t.Fatal("nothing tracked")
	}
	for i := 0; i < 12_000_000; i++ {
		if s.IsSample() {
			s.Track(50+rng.Intn(10), Read, struct{}{})
		}
	}
	// The stale low-range units need >= 8 cold classifications before the
	// mock CSHF evicts them; 12M accesses give plenty of phases. After
	// eviction, only the ~10 new hot units remain tracked.
	if m.TrackedUnits() > trackedAfterHot+5 {
		t.Fatalf("stale units not evicted: tracked=%d (was %d)", m.TrackedUnits(), trackedAfterHot)
	}
}
