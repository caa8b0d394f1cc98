package core

import (
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ahi/internal/hashmap"
)

// asyncConfig returns a mockIndex config with asynchronous migrations on.
func asyncConfig(ix *mockIndex, mode ConcurrencyMode) Config[int, struct{}] {
	cfg := ix.config(mode)
	cfg.AsyncMigrations = true
	return cfg
}

// flatConfig returns an asynchronous config over units the test tracks by
// hand: no budget, so every sampled unit is hot, and no Bloom filter, so
// one Track makes a unit a candidate.
func flatConfig(n int64) Config[int, struct{}] {
	return Config[int, struct{}]{
		Hash: func(id int) uint64 { return hashmap.HashU64(uint64(id)) },
		Units: func() UnitCounts {
			return UnitCounts{Compressed: n, CompressedAvg: 10, UncompressedAvg: 100}
		},
		UsedMemory:      func() int64 { return 10 * n },
		DisableBloom:    true,
		AsyncMigrations: true,
	}
}

func TestAsyncMigrationsRunOffAdaptPath(t *testing.T) {
	const n = 1000
	ix := newMockIndex(n)
	cfg := asyncConfig(ix, TLS)
	cfg.MemoryBudget = 10*int64(n) + 100*100
	var mu sync.Mutex
	var adapts []AdaptInfo
	cfg.OnAdapt = func(ai AdaptInfo) {
		mu.Lock()
		adapts = append(adapts, ai)
		mu.Unlock()
	}
	m := New(cfg)
	defer m.Close()
	driveSkewed(m, n, 2_000_000, 1)
	m.DrainMigrations()
	mu.Lock()
	queued, inline := 0, 0
	for _, ai := range adapts {
		queued += ai.Queued
		inline += ai.Migrations
	}
	mu.Unlock()
	if queued == 0 {
		t.Fatal("no migrations were queued; workers unused")
	}
	if m.Migrations() == 0 {
		t.Fatal("no migrations executed")
	}
	if !ix.isExpanded(0) || !ix.isExpanded(1) {
		t.Fatal("hottest units were not expanded by the workers")
	}
	// Inline + queued must account for every successful migration (the
	// mock never reports ok on a no-op re-encode, so counts line up only
	// approximately: a worker may find the unit already at the target).
	if int64(inline+queued) < m.Migrations() {
		t.Fatalf("migrations=%d exceed inline=%d + queued=%d", m.Migrations(), inline, queued)
	}
}

// TestAsyncIDChangeKeepsOldEntry: workers ignore the ID Migrate returns.
// The unit keeps its sample entry under the old ID, eviction ages that
// entry out like any cold unit's, and no later phase brings it back
// under either ID.
func TestAsyncIDChangeKeepsOldEntry(t *testing.T) {
	var migrated atomic.Int32
	cfg := flatConfig(10)
	cfg.Heuristic = func(_ int, _ *struct{}, st *Stats, env Env) Action {
		if env.Hot {
			return Action{Target: 1, Migrate: true}
		}
		if st.HotStreak() == 0 {
			return Action{Evict: true}
		}
		return Action{}
	}
	cfg.Migrate = func(id int, _ struct{}, _ Encoding) (int, bool) {
		migrated.Add(1)
		return id + 1000, true
	}
	m := New(cfg)
	defer m.Close()
	tracked := func(id int) bool {
		m.mergeMu.Lock()
		defer m.mergeMu.Unlock()
		return m.local.Ref(id) != nil
	}
	s := m.NewSampler()
	s.Track(5, Read, struct{}{})
	s.Flush()
	m.adapt(m.epoch.Load())
	m.DrainMigrations()
	if migrated.Load() != 1 {
		t.Fatalf("migrated=%d want 1", migrated.Load())
	}
	if !tracked(5) || tracked(1005) {
		t.Fatalf("after the migration: old ID tracked=%v, new ID tracked=%v; want true, false",
			tracked(5), tracked(1005))
	}
	for i := 0; i < 4; i++ { // unit 5 is no longer sampled: cold, then evicted
		m.adapt(m.epoch.Load())
		m.DrainMigrations()
	}
	if tracked(5) || tracked(1005) || m.TrackedUnits() != 0 {
		t.Fatalf("old ID tracked=%v, new ID tracked=%v, units=%d; want the entry aged out",
			tracked(5), tracked(1005), m.TrackedUnits())
	}
	if migrated.Load() != 1 {
		t.Fatalf("migrated=%d want 1", migrated.Load())
	}
}

// TestAsyncQueueFullDefersEnqueue: with both workers wedged the backlog
// grows past its bound; proposals there report the deep backlog, are
// still accepted, and every one runs once the workers are free.
func TestAsyncQueueFullDefersEnqueue(t *testing.T) {
	block := make(chan struct{})
	var calls atomic.Int32
	ix := newMockIndex(10)
	cfg := asyncConfig(ix, TLS)
	cfg.Migrate = func(id int, _ struct{}, _ Encoding) (int, bool) {
		calls.Add(1)
		<-block
		return id, true
	}
	m := New(cfg)
	for i := 0; i < migrationWorkers; i++ {
		m.pend.propose(i, pending[struct{}]{target: 1})
	}
	for calls.Load() < migrationWorkers {
		time.Sleep(time.Millisecond)
	}
	n := migrationWorkers + BackpressureBacklog + 3
	for i := migrationWorkers; i < n; i++ {
		res := m.pend.propose(i, pending[struct{}]{target: 1})
		if b := m.MigrationBacklog(); res != proposedNew || b != i-migrationWorkers+1 {
			t.Fatalf("proposal %d = (%d, backlog %d), want (proposedNew, %d)", i, res, b, i-migrationWorkers+1)
		}
	}
	if b := m.MigrationBacklog(); b != n-migrationWorkers {
		t.Fatalf("MigrationBacklog=%d want %d", b, n-migrationWorkers)
	}
	close(block)
	m.DrainMigrations()
	if int(calls.Load()) != n || m.MigrationBacklog() != 0 {
		t.Fatalf("calls=%d backlog=%d after drain, want %d and 0", calls.Load(), m.MigrationBacklog(), n)
	}
	m.Close()
	if res := m.pend.propose(n, pending[struct{}]{target: 1}); res != proposedClosed {
		t.Fatalf("proposal after Close = %d, want proposedClosed", res)
	}
}

func TestAsyncCloseFlushesQueue(t *testing.T) {
	var calls atomic.Int32
	ix := newMockIndex(10)
	cfg := asyncConfig(ix, TLS)
	cfg.Migrate = func(id int, _ struct{}, _ Encoding) (int, bool) {
		calls.Add(1)
		return id, true
	}
	m := New(cfg)
	enq := 0
	for i := 0; i < 20; i++ {
		if res := m.pend.propose(i, pending[struct{}]{target: 1}); res == proposedNew {
			enq++
		}
	}
	m.Close() // every accepted proposal runs
	if int(calls.Load()) != enq {
		t.Fatalf("executed %d of %d accepted proposals", calls.Load(), enq)
	}
	m.Close() // idempotent
}

// TestAsyncTinyQueueBackpressure drives a skewed workload through the
// sampler while both workers are wedged and the backlog sits at its
// bound, the pending set's stand-in for a full queue: every phase's
// proposals surface as backpressure, the serve path never migrates
// inline, and no accepted target is dropped — Close applies them.
func TestAsyncTinyQueueBackpressure(t *testing.T) {
	const n = 600
	block := make(chan struct{})
	started := make(chan struct{}, migrationWorkers)
	ix := newMockIndex(n)
	cfg := asyncConfig(ix, TLS)
	cfg.MemoryBudget = 10*int64(n) + 60*100
	cfg.Migrate = func(id int, c struct{}, tgt Encoding) (int, bool) {
		if id >= n {
			// Sentinel units: the first ones wedge the workers, the rest
			// hold the backlog at its bound.
			select {
			case started <- struct{}{}:
			default:
			}
			<-block
			return id, true
		}
		return ix.migrate(id, c, tgt)
	}
	inline, backpressured := 0, 0
	cfg.OnAdapt = func(ai AdaptInfo) {
		inline += ai.Migrations
		backpressured += ai.Backpressured
	}
	m := New(cfg)
	for i := 0; i < migrationWorkers; i++ {
		m.pend.propose(n+i, pending[struct{}]{target: 1})
		<-started
	}
	for i := 0; i < BackpressureBacklog; i++ {
		m.pend.propose(2*n+i, pending[struct{}]{target: 1})
	}
	driveSkewed(m, n, 1_500_000, 5)
	if m.Adaptations() == 0 {
		t.Fatal("no adaptation ran")
	}
	close(block)
	m.Close()
	if inline != 0 {
		t.Fatalf("inline migrations = %d, want 0 (backpressure replaces fallback)", inline)
	}
	if backpressured == 0 {
		t.Fatal("a backlog at its bound must surface backpressure")
	}
	if m.Backpressured() != int64(backpressured) {
		t.Fatalf("cumulative backpressured %d != summed phase counts %d",
			m.Backpressured(), backpressured)
	}
	if m.InlineFallbacks() != 0 {
		t.Fatalf("InlineFallbacks = %d, want 0 always", m.InlineFallbacks())
	}
	if !ix.isExpanded(0) {
		t.Fatal("hottest unit not expanded despite backpressure")
	}
}

// TestOwnBurstIsNotBackpressure: a phase that proposes more migrations
// than the backpressure bound into an empty backlog is not backpressured
// (the workers get the next phase to drain them), and the skip follows
// the churn rule. The next phase, which finds them still waiting, is.
func TestOwnBurstIsNotBackpressure(t *testing.T) {
	const burst = 2 * BackpressureBacklog
	block := make(chan struct{})
	cfg := flatConfig(4 * burst)
	cfg.Heuristic = func(_ int, _ *struct{}, _ *Stats, env Env) Action {
		return Action{Target: 1, Migrate: env.Hot}
	}
	cfg.Migrate = func(id int, _ struct{}, _ Encoding) (int, bool) {
		<-block
		return id, true
	}
	cfg.InitialSkip, cfg.MinSkip, cfg.MaxSkip, cfg.AdaptiveSkip = 100, 50, 500, true
	var last AdaptInfo
	cfg.OnAdapt = func(ai AdaptInfo) { last = ai }
	m := New(cfg)
	s := m.NewSampler()
	for lo := 0; lo < 2*burst; lo += burst {
		for id := lo; id < lo+burst; id++ {
			s.Track(id, Read, struct{}{})
		}
		s.Flush()
		m.adapt(m.epoch.Load())
		want := 0
		if lo > 0 {
			want = burst
		}
		if last.Queued != burst || last.Backpressured != want {
			t.Fatalf("phase %d: queued %d, backpressured %d; want %d and %d",
				lo/burst, last.Queued, last.Backpressured, burst, want)
		}
		if lo == 0 && last.NewSkip != 50 {
			// Every sample proposed a migration: churn halves the skip.
			t.Fatalf("phase 0 set the skip to %d, want 50", last.NewSkip)
		}
	}
	close(block)
	m.Close()
}

func TestGSAsyncConcurrentAdaptation(t *testing.T) {
	const n = 2000
	ix := newMockIndex(n)
	cfg := asyncConfig(ix, GS)
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
	m.DrainMigrations()
	m.Close()
	if m.Adaptations() == 0 {
		t.Fatal("no adaptations under GS with async migrations")
	}
	if m.Migrations() == 0 {
		t.Fatal("no migrations under GS with async migrations")
	}
	if !ix.isExpanded(0) {
		t.Fatal("hottest unit not expanded under GS with async migrations")
	}
}

// TestPendingTargetIsLastProposed is the pending set's property: each
// time DrainMigrations returns, every proposed unit has the encoding it
// was last proposed, unless Migrate refused that swap. Phases retarget
// units while workers are mid-migration, and Migrate sleeps before it
// applies, so a design that lets a stale target run alongside or after a
// newer one leaves units at the stale encoding.
func TestPendingTargetIsLastProposed(t *testing.T) {
	const units, phases = 4, 300 // few units: a unit's proposals sit close in the FIFO
	type call struct {
		target  Encoding
		refused bool
	}
	var mu sync.Mutex
	enc := make([]Encoding, units)
	busy := make([]bool, units)
	lastCall := make([]call, units)
	plan := make([]int, units) // this phase's target per unit; -1 proposes none
	last := make([]int, units) // last proposed target; -1 none yet
	for i := range last {
		last[i] = -1
	}
	var calls atomic.Int64
	cfg := flatConfig(units)
	cfg.Heuristic = func(id int, _ *struct{}, _ *Stats, _ Env) Action {
		if plan[id] < 0 {
			return Action{}
		}
		last[id] = plan[id]
		return Action{Target: Encoding(plan[id]), Migrate: true}
	}
	cfg.Migrate = func(id int, _ struct{}, tgt Encoding) (int, bool) {
		n := calls.Add(1)
		mu.Lock()
		if busy[id] {
			t.Errorf("two workers migrate unit %d at once", id)
		}
		busy[id] = true
		mu.Unlock()
		time.Sleep(time.Duration(n%5) * 50 * time.Microsecond)
		mu.Lock()
		defer mu.Unlock()
		busy[id] = false
		refused := n%7 == 0 // a racing write made the swap give up
		lastCall[id] = call{tgt, refused}
		if refused || enc[id] == tgt {
			return id, false
		}
		enc[id] = tgt
		return id, true
	}
	m := New(cfg)
	defer m.Close()
	s := m.NewSampler()
	for id := 0; id < units; id++ {
		s.Track(id, Read, struct{}{})
	}
	rng := rand.New(rand.NewSource(1))
	for p := 1; p <= phases; p++ {
		for id := range plan {
			plan[id] = rng.Intn(6) - 3 // half the units get a target in {0, 1, 2}
		}
		m.adapt(m.epoch.Load())
		time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		if p%10 != 0 {
			continue
		}
		m.DrainMigrations()
		mu.Lock()
		for id := 0; id < units; id++ {
			want := Encoding(last[id])
			if last[id] < 0 || enc[id] == want || lastCall[id] == (call{want, true}) {
				continue
			}
			t.Errorf("phase %d, unit %d: encoding %d, last proposed %d (last Migrate call %+v)",
				p, id, enc[id], want, lastCall[id])
		}
		mu.Unlock()
	}
}

// TestPipelineEnqueueCloseDrainRace runs adapt, direct proposals, the
// workers, DrainMigrations and Close at once. Run under -race. No
// migration may run after Close returns, and none accepted before it may
// be lost: each unit a proposer owns ends at the last target accepted for
// it. Neither drain nor close may deadlock.
func TestPipelineEnqueueCloseDrainRace(t *testing.T) {
	const proposers, owned, adaptUnits = 4, 16, 64
	const units = proposers*owned + adaptUnits
	var enc [units]atomic.Int32
	var closed atomic.Bool
	var late atomic.Int32
	cfg := flatConfig(units)
	cfg.Heuristic = func(_ int, _ *struct{}, _ *Stats, env Env) Action {
		return Action{Target: Encoding(1 + env.Epoch%3), Migrate: true} // retarget every phase
	}
	cfg.Migrate = func(id int, _ struct{}, tgt Encoding) (int, bool) {
		if closed.Load() {
			late.Add(1)
		}
		return id, enc[id].Swap(int32(tgt)) != int32(tgt)
	}
	m := New(cfg)

	var accepted [proposers * owned]atomic.Int32 // last accepted target; 0 none
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < proposers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			<-start
			for i := 0; i < 3000; i++ {
				id, tgt := g*owned+rng.Intn(owned), Encoding(1+rng.Intn(3))
				if res := m.pend.propose(id, pending[struct{}]{target: tgt}); res != proposedClosed {
					accepted[id].Store(int32(tgt))
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() { // the phases, on the sampler's goroutine
		defer wg.Done()
		s := m.NewSampler()
		<-start
		for p := 0; p < 200; p++ {
			for id := proposers * owned; id < units; id++ {
				s.Track(id, Read, struct{}{})
			}
			m.adapt(m.epoch.Load())
		}
	}()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				m.DrainMigrations()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(2 * time.Millisecond)
		m.Close()
		closed.Store(true)
	}()
	close(start)
	wg.Wait()
	m.Close() // idempotent

	if n := late.Load(); n != 0 {
		t.Fatalf("%d migrations ran after Close returned", n)
	}
	for id := range accepted {
		if want := accepted[id].Load(); want != 0 && enc[id].Load() != want {
			t.Errorf("unit %d: encoding %d, last accepted target %d", id, enc[id].Load(), want)
		}
	}
	if res := m.pend.propose(0, pending[struct{}]{target: 1}); res != proposedClosed {
		t.Fatalf("proposal after Close = %d, want proposedClosed", res)
	}
}

// TestAdaptInfoSurfacesPipelinePressure: proposals made while the backlog
// is at its bound surface as Backpressured, per phase and cumulatively,
// raise the skip length and never migrate inline. A replaced target
// counts as Coalesced and a repeated one as Deduped. DrainMigrations
// records its latency, and every accepted target is applied.
func TestAdaptInfoSurfacesPipelinePressure(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, migrationWorkers)
	ix := newMockIndex(64)
	cfg := asyncConfig(ix, TLS)
	cfg.DisableBloom = true
	cfg.Migrate = func(id int, c struct{}, tgt Encoding) (int, bool) {
		if id >= 1000 {
			// Sentinel units: the first ones wedge the workers, the rest
			// hold the backlog at its bound while the phases below run.
			select {
			case started <- struct{}{}:
			default:
			}
			<-block
			return id, true
		}
		return ix.migrate(id, c, tgt)
	}
	var last AdaptInfo
	cfg.OnAdapt = func(ai AdaptInfo) { last = ai }
	m := New(cfg)
	for i := 0; i < migrationWorkers; i++ {
		m.pend.propose(1000+i, pending[struct{}]{target: 1})
		<-started
	}
	for i := 0; i < BackpressureBacklog; i++ {
		m.pend.propose(2000+i, pending[struct{}]{target: 1})
	}
	// Units 0..3 already owe a different target, which the phase replaces.
	for i := 0; i < 4; i++ {
		m.pend.propose(i, pending[struct{}]{target: 2})
	}
	s := m.NewSampler()
	track := func() {
		for i := 0; i < 8; i++ {
			s.Track(i, Read, struct{}{})
			s.Track(i, Read, struct{}{})
		}
		s.Flush()
	}
	track()
	skipBefore := m.SkipLength()
	m.adapt(m.epoch.Load())
	if last.Backpressured != 8 || last.Coalesced != 4 || last.Queued != 4 || last.Migrations != 0 {
		t.Fatalf("phase 1: backpressured=%d coalesced=%d queued=%d inline=%d, want 8, 4, 4, 0",
			last.Backpressured, last.Coalesced, last.Queued, last.Migrations)
	}
	if want := BackpressureBacklog + 8; last.Backlog != want {
		t.Fatalf("Backlog=%d want %d", last.Backlog, want)
	}
	if m.Backpressured() != 8 {
		t.Fatalf("cumulative backpressured %d, want 8", m.Backpressured())
	}
	if m.SkipLength() <= skipBefore {
		t.Fatalf("skip length %d did not grow from %d under backpressure", m.SkipLength(), skipBefore)
	}
	// The same targets again change nothing, but still met the backlog.
	track()
	m.adapt(m.epoch.Load())
	if last.Deduped != 8 || last.Backpressured != 8 || last.Queued != 0 {
		t.Fatalf("phase 2: deduped=%d backpressured=%d queued=%d, want 8, 8, 0",
			last.Deduped, last.Backpressured, last.Queued)
	}
	if m.DedupedEnqueues() != 8 || m.CoalescedTriggers() != 4 || m.Backpressured() != 16 {
		t.Fatalf("cumulative deduped=%d coalesced=%d backpressured=%d, want 8, 4 and 16",
			m.DedupedEnqueues(), m.CoalescedTriggers(), m.Backpressured())
	}
	close(block)
	m.DrainMigrations()
	if m.LastDrainNs() <= 0 {
		t.Fatal("DrainMigrations must record its latency")
	}
	m.Close()
	for i := 0; i < 8; i++ {
		if !ix.isExpanded(i) {
			t.Fatalf("accepted expansion of unit %d was dropped", i)
		}
	}
	if m.InlineFallbacks() != 0 {
		t.Fatalf("InlineFallbacks = %d, want 0 always", m.InlineFallbacks())
	}
}

// TestEnqueueDedupStatuses walks every proposal outcome: a unit with
// nothing pending joins the FIFO, the same target pending or running is a
// no-op, and a different target replaces a pending one — or, when the
// unit is being migrated, makes a worker migrate it again right after.
func TestEnqueueDedupStatuses(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	var mu sync.Mutex
	seq := map[int][]Encoding{}
	ix := newMockIndex(10)
	cfg := asyncConfig(ix, TLS)
	cfg.Migrate = func(id int, _ struct{}, tgt Encoding) (int, bool) {
		mu.Lock()
		seq[id] = append(seq[id], tgt)
		mu.Unlock()
		started <- struct{}{}
		<-block
		return id, true
	}
	m := New(cfg)
	propose := func(id int, tgt Encoding, want proposal) {
		t.Helper()
		if got := m.pend.propose(id, pending[struct{}]{target: tgt}); got != want {
			t.Fatalf("propose(%d, %d) = %d, want %d", id, tgt, got, want)
		}
	}
	propose(1, 1, proposedNew)
	propose(2, 1, proposedNew)
	<-started
	<-started // both workers are inside Migrate
	propose(1, 1, proposedSame)
	propose(3, 1, proposedNew) // waits: no worker is free
	propose(3, 1, proposedSame)
	propose(3, 2, proposedReplaced)
	propose(1, 2, proposedReplaced) // unit 1 is running: it migrates again
	close(block)
	m.Close()
	want := map[int][]Encoding{1: {1, 2}, 2: {1}, 3: {2}}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("Migrate calls per unit = %v, want %v", seq, want)
	}
}

func TestAdaptCountsDedupedEnqueues(t *testing.T) {
	// A phase that proposes the target a worker is already applying must
	// change nothing and surface the count via AdaptInfo.Deduped and
	// Manager.DedupedEnqueues().
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	ix := newMockIndex(64)
	cfg := asyncConfig(ix, TLS)
	cfg.DisableBloom = true
	cfg.Migrate = func(id int, c struct{}, tgt Encoding) (int, bool) {
		if id == 0 {
			started <- struct{}{}
			<-block
		}
		return ix.migrate(id, c, tgt)
	}
	var last AdaptInfo
	cfg.OnAdapt = func(ai AdaptInfo) { last = ai }
	m := New(cfg)
	// Propose unit 0's expansion and wait until a worker runs it.
	if res := m.pend.propose(0, pending[struct{}]{target: 1}); res != proposedNew {
		t.Fatal("first proposal not accepted")
	}
	<-started
	s := m.NewSampler()
	for i := 0; i < 4; i++ {
		s.Track(i, Read, struct{}{})
		s.Track(i, Read, struct{}{})
	}
	s.Flush()
	m.adapt(m.epoch.Load())
	if last.Deduped != 1 {
		t.Fatalf("AdaptInfo.Deduped = %d, want 1", last.Deduped)
	}
	if m.DedupedEnqueues() != 1 {
		t.Fatalf("DedupedEnqueues = %d, want 1", m.DedupedEnqueues())
	}
	if last.Queued != 3 {
		t.Fatalf("Queued = %d, want 3 (units 1..3)", last.Queued)
	}
	close(block)
	m.Close()
	if !ix.isExpanded(0) {
		t.Fatal("the running expansion of unit 0 must still complete")
	}
}
