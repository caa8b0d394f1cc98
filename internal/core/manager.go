package core

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"ahi/internal/bloom"
	"ahi/internal/hashmap"
	"ahi/internal/obs"
	"ahi/internal/topk"
)

// Config wires an index into the adaptation manager. Hash, Units,
// Heuristic and Migrate are required; everything else has defaults.
type Config[ID comparable, Ctx any] struct {
	// Hash maps an identifier to a 64-bit hash (hashmap.HashU64 over a
	// numeric handle is the common choice).
	Hash func(ID) uint64
	// Units reports the index's tracked-unit counts and average encoding
	// sizes, consumed by Equation (1) and the budget-derived k.
	Units func() UnitCounts
	// UsedMemory returns the index's current size in bytes (Listing 1's
	// GetUsedMemory callback).
	UsedMemory func() int64
	// ChargedBytes, optional, reports bytes consumed by auxiliary
	// read-path structures (e.g. a hot-key result cache) that must fit
	// inside the memory budget alongside the index itself. The manager
	// subtracts it from the budget headroom wherever UsedMemory is
	// consulted, so index encodings plus auxiliaries never exceed the
	// configured budget.
	ChargedBytes func() int64
	// Heuristic is the index's CSHF (Listing 1's EvaluateHeuristic): given
	// a unit's stats, context and classification, propose an Action.
	Heuristic func(id ID, ctx *Ctx, st *Stats, env Env) Action
	// Migrate performs one encoding migration (Listing 1's Encode
	// callback) and returns the unit's identifier afterwards — migrations
	// may replace nodes, changing identity — plus whether anything
	// changed. Stale contexts must be tolerated (e.g. a parent pointer
	// outdated by a split); returning ok=false skips the unit.
	Migrate func(id ID, ctx Ctx, target Encoding) (newID ID, ok bool)

	// MemoryBudget bounds the index size in bytes; 0 means unbounded.
	MemoryBudget int64
	// RelativeBudget, if positive, sets the budget to this fraction of the
	// all-expanded index size (Uncompressed average × total units),
	// re-evaluated each phase — the paper's relative budget that tracks
	// inserts and deletes (§3.1.6).
	RelativeBudget float64

	// Epsilon and Delta are the error bound and failure probability of the
	// top-k approximation (default 0.05 each).
	Epsilon, Delta float64

	// Skip-length control (§3.1.4). When AdaptiveSkip is true the manager
	// moves the skip within [MinSkip, MaxSkip] based on migration churn;
	// otherwise the skip stays at InitialSkip (Figure 5's fixed sweep).
	InitialSkip      int
	MinSkip, MaxSkip int
	AdaptiveSkip     bool

	// MaxSampleSize caps Equation (1)'s result (and bounds memory).
	MaxSampleSize int

	// DisableBloom removes the Bloom filter in front of the sample map
	// (the ablation of Figure 5's blue vs. red line).
	DisableBloom bool

	// Mode selects the sample store of §3.1.5: TLS (default) or GS.
	Mode ConcurrencyMode

	// AsyncMigrations moves encoding migrations off the critical path:
	// adapt() records each unit's target encoding and returns after
	// classification, and two worker goroutines apply the targets (see
	// pending.go). Requires Migrate to be safe against concurrent
	// foreground access and concurrent Migrate calls. The workers ignore
	// the ID Migrate returns: a unit whose ID changes keeps its sample
	// entry under the old ID, which ages out through eviction like any
	// cold unit. Call Manager.Close to apply what is pending and stop the
	// workers when retiring the index.
	AsyncMigrations bool

	// OnAdapt, if set, observes every completed adaptation phase.
	OnAdapt func(AdaptInfo)

	// Obs, if set, attaches the manager to an observability scope: every
	// migration becomes a trace event (with trigger classification, queue
	// wait and build latency), every adaptation phase emits an
	// encoding-distribution snapshot, and the scope's counters/histograms
	// track sampling and migration backlog. Nil disables instrumentation;
	// the instrumented paths then cost one nil check each.
	Obs *obs.Index
	// Distribution, optional, reports the index's per-encoding unit/byte
	// distribution for snapshots (e.g. succinct/packed/gapped leaves).
	// Consulted once per adaptation phase; ignored without Obs.
	Distribution func() []obs.EncodingClass
	// EncodingOf, optional, reports a unit's current encoding so trace
	// events can name the migration's origin. Must be cheap (it runs once
	// per proposed migration); ignored without Obs.
	EncodingOf func(ID) (Encoding, bool)
}

func (c *Config[ID, Ctx]) setDefaults() {
	if c.Epsilon <= 0 {
		c.Epsilon = topk.DefaultEpsilon
	}
	if c.Delta <= 0 {
		c.Delta = topk.DefaultDelta
	}
	if c.MinSkip <= 0 {
		c.MinSkip = 50
	}
	if c.MaxSkip < c.MinSkip {
		c.MaxSkip = 500
	}
	// A zero skip ("sample every access", Figure 5's leftmost point) is
	// meaningful with a fixed skip; under adaptive control it only makes
	// sense to start at the minimum.
	if c.InitialSkip < 0 || (c.InitialSkip == 0 && c.AdaptiveSkip) {
		c.InitialSkip = c.MinSkip
	}
	if c.MaxSampleSize <= 0 {
		c.MaxSampleSize = 1 << 20
	}
}

// entry is the per-unit record in the sample stores: aggregated statistics
// plus the caller-supplied context.
type entry[Ctx any] struct {
	stats Stats
	ctx   Ctx
}

// Manager is the adaptation manager of §3.1. Create one per hybrid index
// via New, obtain one Sampler per worker goroutine, and call
// Sampler.IsSample/Track from the index's access paths.
type Manager[ID comparable, Ctx any] struct {
	cfg Config[ID, Ctx]

	epoch       atomic.Uint32
	globalSkip  atomic.Int64
	sampleSize  atomic.Int64
	sampled     atomic.Int64 // samples accumulated in the current phase
	adapting    atomic.Bool
	filterEpoch atomic.Uint32 // samplers reset their filters lazily
	samplers    atomic.Int64  // registered samplers: TLS merge quota divisor

	// TLS store the samplers merge into, guarded by mergeMu.
	local   *hashmap.Hopscotch[ID, entry[Ctx]]
	mergeMu sync.Mutex

	// GS store.
	shared *hashmap.Cuckoo[ID, entry[Ctx]]

	// Migrations owed to units (nil unless AsyncMigrations).
	pend *pendingSet[ID, Ctx]

	// Phase II scratch, reused across epochs. adapt() runs exclusively
	// (the adapting CAS), so plain fields are safe.
	candScratch []candidate[ID, Ctx]
	hotScratch  []bool

	// Aggregate counters.
	totalMigrations atomic.Int64
	totalAdapts     atomic.Int64
	samplerBytes    atomic.Int64
	backpressured   atomic.Int64
	coalesced       atomic.Int64
	dedupedEnqueues atomic.Int64
	lastDrainNs     atomic.Int64
}

// New creates an adaptation manager. It panics if a required callback is
// missing, because a silently inert manager would invalidate experiments.
func New[ID comparable, Ctx any](cfg Config[ID, Ctx]) *Manager[ID, Ctx] {
	if cfg.Hash == nil || cfg.Units == nil || cfg.Heuristic == nil || cfg.Migrate == nil || cfg.UsedMemory == nil {
		panic("core: Config requires Hash, Units, UsedMemory, Heuristic and Migrate")
	}
	cfg.setDefaults()
	m := &Manager[ID, Ctx]{cfg: cfg}
	m.globalSkip.Store(int64(cfg.InitialSkip))
	m.sampleSize.Store(int64(m.initialSampleSize()))
	if cfg.Mode == GS {
		m.shared = hashmap.NewCuckoo[ID, entry[Ctx]](cfg.Hash, 4096, runtime.GOMAXPROCS(0)*4)
	} else {
		m.local = hashmap.NewHopscotch[ID, entry[Ctx]](cfg.Hash, 1024)
	}
	if cfg.AsyncMigrations {
		m.pend = newPendingSet(m)
	}
	return m
}

func (m *Manager[ID, Ctx]) initialSampleSize() int {
	u := m.cfg.Units()
	n := int(u.Total())
	if n == 0 {
		n = 1024
	}
	s := topk.SampleSize(n, m.budgetK(u), m.cfg.Epsilon, m.cfg.Delta)
	return m.clampSampleSize(s)
}

func (m *Manager[ID, Ctx]) clampSampleSize(s int) int {
	if s < 64 {
		s = 64
	}
	if s > m.cfg.MaxSampleSize {
		s = m.cfg.MaxSampleSize
	}
	return s
}

// budget resolves the configured budget in bytes; MaxInt64 when unbounded.
func (m *Manager[ID, Ctx]) budget(u UnitCounts) int64 {
	if m.cfg.RelativeBudget > 0 {
		allExpanded := float64(u.Total()) * float64(u.UncompressedAvg)
		return int64(m.cfg.RelativeBudget * allExpanded)
	}
	if m.cfg.MemoryBudget > 0 {
		return m.cfg.MemoryBudget
	}
	return math.MaxInt64
}

// charged resolves ChargedBytes (0 when unset).
func (m *Manager[ID, Ctx]) charged() int64 {
	if m.cfg.ChargedBytes == nil {
		return 0
	}
	return m.cfg.ChargedBytes()
}

// budgetK derives the top-k size from the memory budget (§3: "we set k to
// the number of theoretically expandable nodes").
func (m *Manager[ID, Ctx]) budgetK(u UnitCounts) int {
	b := m.budget(u)
	if b == math.MaxInt64 {
		return int(u.Total())
	}
	if c := m.charged(); c > 0 {
		// Auxiliary structures shrink the budget available to encodings.
		if b -= c; b < 0 {
			b = 0
		}
	}
	return topk.BudgetK(b, u.Compressed, u.CompressedAvg, u.Uncompressed, u.UncompressedAvg)
}

// Epoch returns the current sampling epoch.
func (m *Manager[ID, Ctx]) Epoch() uint32 { return m.epoch.Load() }

// RestoreAdaptationState reinstates sampling state recorded in a
// durability checkpoint — the epoch counter, the converged skip length,
// and the target sample size — so a recovered index resumes adaptation
// where it left off instead of re-learning from the initial defaults.
// Zero arguments leave the corresponding state untouched. Call before
// the first access; it does not synchronize with running samplers.
func (m *Manager[ID, Ctx]) RestoreAdaptationState(epoch uint32, skip, sampleSize int) {
	if epoch > 0 {
		m.epoch.Store(epoch)
	}
	if skip > 0 {
		if m.cfg.MinSkip > 0 && skip < m.cfg.MinSkip {
			skip = m.cfg.MinSkip
		}
		if m.cfg.MaxSkip > 0 && skip > m.cfg.MaxSkip {
			skip = m.cfg.MaxSkip
		}
		m.globalSkip.Store(int64(skip))
	}
	if sampleSize > 0 {
		m.sampleSize.Store(int64(m.clampSampleSize(sampleSize)))
	}
}

// SkipLength returns the current global skip length.
func (m *Manager[ID, Ctx]) SkipLength() int { return int(m.globalSkip.Load()) }

// SampleSize returns the current target sample size.
func (m *Manager[ID, Ctx]) SampleSize() int { return int(m.sampleSize.Load()) }

// Migrations returns the total number of successful encoding migrations.
func (m *Manager[ID, Ctx]) Migrations() int64 { return m.totalMigrations.Load() }

// Adaptations returns the number of completed adaptation phases.
func (m *Manager[ID, Ctx]) Adaptations() int64 { return m.totalAdapts.Load() }

// InlineFallbacks returns 0: asynchronous migrations never run on the
// proposing path. Kept for the benchmark's core.inline_fallbacks rung.
func (m *Manager[ID, Ctx]) InlineFallbacks() int64 { return 0 }

// Backpressured returns how many proposals, over the manager's lifetime,
// were made by phases that ended with the migration backlog earlier phases
// left at or above its bound of 128 (0 without AsyncMigrations).
func (m *Manager[ID, Ctx]) Backpressured() int64 { return m.backpressured.Load() }

// CoalescedTriggers returns how many proposals replaced a different
// target still pending for the same unit (0 without AsyncMigrations).
func (m *Manager[ID, Ctx]) CoalescedTriggers() int64 { return m.coalesced.Load() }

// DedupedEnqueues returns how many proposals found the same target
// already pending or running for the unit, and so changed nothing (0
// without AsyncMigrations).
func (m *Manager[ID, Ctx]) DedupedEnqueues() int64 { return m.dedupedEnqueues.Load() }

// LastDrainNs returns the duration of the most recent DrainMigrations
// call in nanoseconds (0 if never drained).
func (m *Manager[ID, Ctx]) LastDrainNs() int64 { return m.lastDrainNs.Load() }

// StoreStats returns the tracked-unit count and the framework's byte
// footprint (sample stores plus per-sampler filters) from ONE snapshot of
// the unit map: both figures are read in a single pass under the same
// locks. Calling TrackedUnits and Bytes separately makes two passes, and
// a concurrent Forget landing between them produces a (units, bytes) pair
// that never existed — snapshot emitters must use this instead.
func (m *Manager[ID, Ctx]) StoreStats() (units int, bytes int64) {
	if m.shared != nil {
		n, b := m.shared.Stats()
		return n, int64(b) + m.samplerBytes.Load()
	}
	m.mergeMu.Lock()
	units = m.local.Len()
	bytes = int64(m.local.Bytes())
	m.mergeMu.Unlock()
	return units, bytes + m.samplerBytes.Load()
}

// Bytes reports the memory the sampling framework itself occupies (sample
// stores plus per-sampler filters) — the paper reports this as 0.1% of the
// index size in Figure 12.
func (m *Manager[ID, Ctx]) Bytes() int64 {
	_, b := m.StoreStats()
	return b
}

// TrackedUnits returns the number of units currently tracked in the
// central store (TLS-local entries not yet merged are excluded).
func (m *Manager[ID, Ctx]) TrackedUnits() int {
	n, _ := m.StoreStats()
	return n
}

// UpdateContext propagates a context change (e.g. a leaf's parent changed
// after a split) to the tracked entry, if any (Listing 1's UpdateContext).
// In TLS mode only the central store is updated; stale contexts in
// unmerged thread-local maps must be tolerated by the Migrate callback.
func (m *Manager[ID, Ctx]) UpdateContext(id ID, ctx Ctx) {
	if m.shared != nil {
		if _, ok := m.shared.Get(id); ok {
			m.shared.Upsert(id, func(e *entry[Ctx], created bool) {
				if !created {
					e.ctx = ctx
				}
			})
		}
		return
	}
	m.mergeMu.Lock()
	if e := m.local.Ref(id); e != nil {
		e.ctx = ctx
	}
	m.mergeMu.Unlock()
}

// Forget drops a tracked unit (e.g. the index deleted the node).
func (m *Manager[ID, Ctx]) Forget(id ID) {
	if m.shared != nil {
		m.shared.Delete(id)
		return
	}
	m.mergeMu.Lock()
	m.local.Delete(id)
	m.mergeMu.Unlock()
}

// Sampler is the per-goroutine sampling handle: a thread-local skip
// counter (the paper's `static thread_local size_t skip_length`), a Bloom
// filter admitting only re-seen identifiers, and — in TLS mode — the
// thread-local sample map.
//
// A sampler is registered while it may hold samples: it counts toward the
// manager's samplers (the merge quota divisor) and its filter and map
// bytes toward samplerBytes. Flush hands both back; the next Track
// registers the sampler again. So sessions that come and go, one per
// request, leave neither the footprint nor the quota behind.
type Sampler[ID comparable, Ctx any] struct {
	m           *Manager[ID, Ctx]
	skip        int64
	filter      *bloom.Filter
	filterEpoch uint32
	// TLS mode only: the thread-local sample map, the samples it buffers,
	// and the samples since the last quota merge.
	local      *hashmap.Hopscotch[ID, entry[Ctx]]
	localCount int
	share      int
	// live: the sampler is registered; reported is what it added to
	// samplerBytes then.
	live     bool
	reported int64
}

// localUnits bounds the units a TLS sampler buffers: it merges early when
// its map holds this many, so the map never grows past its initial
// 2·localUnits slots whatever the phase's unit count.
const localUnits = 64

// NewSampler creates a sampling handle. Each goroutine uses its own, any
// number at once; call Flush when one retires so its buffered samples
// reach the manager.
func (m *Manager[ID, Ctx]) NewSampler() *Sampler[ID, Ctx] {
	s := &Sampler[ID, Ctx]{m: m, skip: m.globalSkip.Load()}
	if !m.cfg.DisableBloom {
		s.filter = bloom.New(int(m.sampleSize.Load())/2+1, bloom.BitsPerKey)
	}
	if m.shared == nil {
		s.local = hashmap.NewHopscotch[ID, entry[Ctx]](m.cfg.Hash, localUnits)
	}
	s.register()
	return s
}

// register counts the sampler in the quota divisor and its filter and map
// in the framework footprint — the paper's TLS trade-off: thread-local
// maps cost extra memory (up to 10x the GS map in their runs).
func (s *Sampler[ID, Ctx]) register() {
	s.live = true
	s.reported = s.footprint()
	s.m.samplers.Add(1)
	s.m.samplerBytes.Add(s.reported)
}

// footprint is the sampler's filter and map bytes.
func (s *Sampler[ID, Ctx]) footprint() int64 {
	var b int64
	if s.filter != nil {
		b += int64(s.filter.Bytes())
	}
	if s.local != nil {
		b += int64(s.local.Bytes())
	}
	return b
}

// IsSample reports whether the current access should be tracked. The
// thread-local counter is decremented without synchronization; only on
// expiry is the shared skip length loaded atomically (§3.1.3).
func (s *Sampler[ID, Ctx]) IsSample() bool {
	if s.skip <= 0 {
		s.skip = s.m.globalSkip.Load()
		return true
	}
	s.skip--
	return false
}

// SampleOffsets advances the sampling counter over n consecutive accesses
// at once, appending the 0-based offsets that are samples to dst.
// Equivalent to n IsSample calls recording the true positions, but in
// O(samples) time — batch operations draw their (rare) sample decisions
// up front without paying the per-access counter walk.
func (s *Sampler[ID, Ctx]) SampleOffsets(n int, dst []int) []int {
	for off := 0; off < n; {
		if s.skip <= 0 {
			s.skip = s.m.globalSkip.Load()
			dst = append(dst, off)
			off++
			continue
		}
		step := int64(n - off)
		if s.skip < step {
			step = s.skip
		}
		s.skip -= step
		off += int(step)
	}
	return dst
}

// Track records one sampled access to the unit identified by id with the
// given context. The context overwrites the stored one (it is the most
// recent known parent); counters reset when the entry's epoch is stale.
func (s *Sampler[ID, Ctx]) Track(id ID, at AccessType, ctx Ctx) {
	m := s.m
	if !s.live {
		s.register()
	}
	if x := m.cfg.Obs; x != nil {
		x.Samples.Inc()
	}
	epoch := m.epoch.Load()
	if s.filter != nil {
		// Reset the filter lazily when a new phase began.
		if fe := m.filterEpoch.Load(); fe != s.filterEpoch {
			s.filter.Reset()
			s.filterEpoch = fe
		}
		if s.filter.AddIfNew(m.cfg.Hash(id)) {
			// First sighting in this phase: admit to the filter only; the
			// map stays untouched (keeps one-off cold nodes out).
			return
		}
	}
	update := func(e *entry[Ctx], _ bool) {
		if e.stats.LastEpoch != epoch {
			e.stats.Reads, e.stats.Writes = 0, 0
			e.stats.LastEpoch = epoch
		}
		e.stats.Count(at)
		e.ctx = ctx
	}
	if m.shared != nil {
		m.shared.Upsert(id, update)
		if m.sampled.Add(1) >= m.sampleSize.Load() {
			s.tryAdapt(epoch)
		}
		return
	}
	s.local.Upsert(id, update)
	s.localCount++
	s.share++
	// The merge quota is ⌈sample size ÷ samplers⌉, compared without a
	// division. Early merges of a full map leave the quota's count alone,
	// so a lone sampler still completes the sample at its quota merge.
	if int64(s.share)*m.samplers.Load() >= m.sampleSize.Load() {
		s.share = 0
		s.merge(epoch)
	} else if s.local.Len() >= localUnits {
		s.merge(epoch)
	}
}

// merge flushes a TLS sampler's local map into the central store; if that
// completes the global sample, this sampler runs the adaptation while the
// others keep sampling (§3.1.5).
func (s *Sampler[ID, Ctx]) merge(epoch uint32) {
	m := s.m
	m.mergeMu.Lock()
	cur := m.epoch.Load()
	s.local.Range(func(id ID, e *entry[Ctx]) bool {
		if e.stats.LastEpoch != cur {
			// Counts of a phase that was classified without them. Dropping
			// them keeps a merge from re-creating an entry that phase's
			// migrations forgot (the Hybrid Trie recycles node handles).
			return true
		}
		m.local.Upsert(id, func(dst *entry[Ctx], created bool) {
			if created || dst.stats.LastEpoch != cur {
				dst.stats.Reads, dst.stats.Writes, dst.stats.LastEpoch = 0, 0, cur
			}
			dst.stats.Reads += e.stats.Reads
			dst.stats.Writes += e.stats.Writes
			dst.ctx = e.ctx
		})
		return true
	})
	m.mergeMu.Unlock()
	// Refresh this sampler's share of the framework footprint (the local
	// map is at its high-water mark right before Clear keeps capacity).
	if now := s.footprint(); now != s.reported {
		m.samplerBytes.Add(now - s.reported)
		s.reported = now
	}
	merged := s.localCount
	s.local.Clear()
	s.localCount = 0
	if m.sampled.Add(int64(merged)) >= m.sampleSize.Load() {
		s.tryAdapt(epoch)
	}
}

// Flush force-merges any locally buffered samples (TLS mode) and
// unregisters the sampler until it next tracks; call when a sampler
// retires or idles.
func (s *Sampler[ID, Ctx]) Flush() {
	if s.local != nil && s.localCount > 0 {
		s.merge(s.m.epoch.Load())
	}
	if s.live {
		s.live = false
		s.m.samplers.Add(-1)
		s.m.samplerBytes.Add(-s.reported)
	}
}

// tryAdapt lets exactly one sampler run the adaptation for this phase.
func (s *Sampler[ID, Ctx]) tryAdapt(epoch uint32) {
	m := s.m
	if !m.adapting.CompareAndSwap(false, true) {
		return
	}
	defer m.adapting.Store(false)
	if m.epoch.Load() != epoch {
		return // another sampler already completed this phase
	}
	m.adapt(epoch)
}
