package btree

import (
	"ahi/internal/cache"
	"ahi/internal/core"
	"ahi/internal/hashmap"
	"ahi/internal/obs"
	"ahi/internal/wal"
)

// LeafCtx is the context the adaptation manager stores per tracked leaf:
// the inner node the leaf was reached from. The B-link design keeps leaf
// identities stable across migrations, so the parent is informational —
// but the framework round-trips it exactly as the paper's variadic context
// arguments do, and the Hybrid Trie relies on the same machinery for real.
type LeafCtx struct {
	Parent *Inner
}

// AdaptiveConfig configures an adaptive Hybrid B+-tree (AHI-BTree).
type AdaptiveConfig struct {
	Tree Config
	// MemoryBudget / RelativeBudget bound the index size (see core.Config).
	MemoryBudget   int64
	RelativeBudget float64
	// Sampling knobs; zero values take the framework defaults
	// (skip ∈ [50, 500] adaptive, ε = δ = 0.05).
	InitialSkip      int
	MinSkip, MaxSkip int
	FixedSkip        bool // disable skip adaptivity (Figure 5 sweeps)
	DisableBloom     bool // ablation: no filter before the sample map
	Epsilon, Delta   float64
	MaxSampleSize    int
	// Concurrency mode of the sample store (§3.1.5).
	Mode    core.ConcurrencyMode
	Workers int
	// AsyncMigrations moves leaf re-encodings off the critical path: the
	// adaptation phase enqueues them to a worker pool instead of migrating
	// inline (safe here — MigrateLeaf locks the leaf and identity is
	// stable). Call Close to flush the pipeline when retiring the tree.
	AsyncMigrations  bool
	MigrationWorkers int // pipeline pool size (default 2)
	MigrationQueue   int // pipeline queue depth (default 256·GOMAXPROCS)
	// ExternalMigrations suppresses the internal worker pool: accepted
	// migrations wait in the queue until an embedder goroutine applies
	// them via RunQueuedMigration. The shard layer uses this to run a
	// shared, work-stealing migrator pool across many trees.
	ExternalMigrations bool
	// OnMigrationQueued is invoked (outside locks) whenever a migration
	// is accepted, so external executors can wake instead of polling.
	OnMigrationQueued func()
	// NoEagerExpand disables the eager expand-on-insert policy (ablation;
	// an insert then keeps the leaf's encoding).
	NoEagerExpand bool
	// ImpatientCompaction makes the CSHF compact on the first cold
	// classification instead of waiting for two consecutive ones
	// (ablation of the history byte).
	ImpatientCompaction bool
	// CacheFraction sizes a hot-key result cache as this fraction of the
	// absolute MemoryBudget (0 disables it). The cache's bytes are
	// charged against the adaptation budget — encodings plus cache never
	// exceed MemoryBudget — and its admission signal reuses the hotness
	// sampler: sampled lookups bypass the cache (keeping the adaptation
	// signal exact) and admit their result pre-warmed. Requires an
	// absolute MemoryBudget; fractions of a RelativeBudget would need
	// the initial data size, which isn't known at construction.
	CacheFraction float64
	// Dur enables the write-ahead log + checkpoint durability layer
	// (durable.go). Only honored by OpenAdaptive; NewAdaptive and
	// BulkLoadAdaptive build volatile trees regardless.
	Dur *DurabilityConfig
	// OnAdapt observes adaptation phases.
	OnAdapt func(core.AdaptInfo)
	// Obs attaches an observability sink: the manager then emits metrics,
	// per-migration trace events and per-epoch encoding-distribution
	// snapshots into it. Nil disables all instrumentation (zero overhead on
	// the access path). ObsSource labels this tree's series — shard fronts
	// set it to "shard<i>" so per-shard scopes aggregate in one registry.
	Obs       *obs.Observability
	ObsSource string
}

// Adaptive is the workload-adaptive Hybrid B+-tree: a Tree plus its
// adaptation manager. Obtain per-goroutine Sessions for tracked access.
type Adaptive struct {
	Tree *Tree
	Mgr  *core.Manager[*Leaf, LeafCtx]

	impatient bool
	cacheFrac float64

	// dur is the durability runtime (nil: volatile tree). Session write
	// paths branch on it once; the lookup path never touches it.
	dur *durState

	// flight is the per-tree flight-recorder scope; nil unless the
	// attached Observability bundle has tracing enabled. Sessions bind it
	// at construction, so enabling tracing after sessions exist only
	// affects sessions created afterwards.
	flight *obs.OpRecorder
}

// NewAdaptive builds an empty adaptive tree. The tree uses eager
// expand-on-insert (§5.2) unless ablated and Succinct as the default
// (cold) encoding.
func NewAdaptive(cfg AdaptiveConfig) *Adaptive {
	cfg.Tree.ExpandOnInsert = !cfg.NoEagerExpand
	t := New(cfg.Tree)
	return wireAdaptive(t, cfg)
}

// BulkLoadAdaptive bulk-loads an adaptive tree from sorted keys. Leaves
// start in cfg.Tree.DefaultEncoding (typically EncSuccinct: everything
// cold until proven hot).
func BulkLoadAdaptive(cfg AdaptiveConfig, keys, vals []uint64) *Adaptive {
	cfg.Tree.ExpandOnInsert = !cfg.NoEagerExpand
	t := BulkLoad(cfg.Tree, keys, vals)
	return wireAdaptive(t, cfg)
}

func wireAdaptive(t *Tree, cfg AdaptiveConfig) *Adaptive {
	a := &Adaptive{Tree: t, impatient: cfg.ImpatientCompaction}
	mcfg := core.Config[*Leaf, LeafCtx]{
		Hash:           func(l *Leaf) uint64 { return hashmap.HashU64(l.id) },
		Units:          a.unitCounts,
		UsedMemory:     t.Bytes,
		Heuristic:      a.heuristic,
		Migrate:        a.migrate,
		MemoryBudget:   cfg.MemoryBudget,
		RelativeBudget: cfg.RelativeBudget,
		Epsilon:        cfg.Epsilon,
		Delta:          cfg.Delta,
		InitialSkip:    cfg.InitialSkip,
		MinSkip:        cfg.MinSkip,
		MaxSkip:        cfg.MaxSkip,
		AdaptiveSkip:   !cfg.FixedSkip,
		MaxSampleSize:  cfg.MaxSampleSize,
		DisableBloom:   cfg.DisableBloom,
		Mode:           cfg.Mode,
		Workers:        cfg.Workers,
		OnAdapt:        cfg.OnAdapt,

		AsyncMigrations:    cfg.AsyncMigrations,
		MigrationWorkers:   cfg.MigrationWorkers,
		MigrationQueue:     cfg.MigrationQueue,
		ExternalMigrations: cfg.ExternalMigrations,
		OnMigrationQueued:  cfg.OnMigrationQueued,
	}
	if cfg.CacheFraction > 0 && cfg.MemoryBudget > 0 {
		// The result cache is carved out of the adaptation budget, not
		// added on top: ChargedBytes makes the manager treat cache bytes
		// exactly like index bytes when computing budget headroom.
		t.rcache = cache.New(int64(cfg.CacheFraction * float64(cfg.MemoryBudget)))
		if t.rcache != nil {
			a.cacheFrac = cfg.CacheFraction
			mcfg.ChargedBytes = t.rcache.Bytes
		}
	}
	if cfg.Obs != nil {
		mcfg.Obs = cfg.Obs.Index(cfg.ObsSource,
			func(e uint8) string { return EncodingName(core.Encoding(e)) })
		mcfg.Distribution = a.distribution
		mcfg.EncodingOf = func(l *Leaf) (core.Encoding, bool) { return l.Encoding(), true }
		registerReadPathMetrics(cfg.Obs.Reg, cfg.ObsSource, t)
		if cfg.Obs.Flight != nil {
			a.flight = cfg.Obs.Flight.Scope(cfg.ObsSource)
		}
	}
	a.Mgr = core.New(mcfg)
	// Keep tracked contexts fresh across splits (§4.1.4: "in case a leaf
	// node gets a new parent, this information must be propagated").
	t.onLeafSplit = func(left, right *Leaf) {
		// The B-link design reaches leaves through sibling links, so only
		// the (informational) parent context may go stale; refreshing the
		// left leaf's entry keeps the bookkeeping exact.
		a.Mgr.UpdateContext(left, LeafCtx{})
	}
	return a
}

// registerReadPathMetrics exposes the hot-key cache and negative-filter
// counters as pull-style gauges under the ahi_cache_/ahi_negfilter_
// prefixes, labelled like every other per-tree series.
func registerReadPathMetrics(reg *obs.Registry, source string, t *Tree) {
	var lbl []obs.Label
	if source != "" {
		lbl = []obs.Label{{K: "source", V: source}}
	}
	if t.cfg.NegFilterBits > 0 {
		reg.GaugeFunc("ahi_negfilter_hits_total", lbl, t.negHits.Load)
	}
	rc := t.rcache
	if rc == nil {
		return
	}
	for _, m := range []struct {
		name string
		f    func() int64
	}{
		{"ahi_cache_hits_total", func() int64 { return rc.Stats().Hits }},
		{"ahi_cache_misses_total", func() int64 { return rc.Stats().Misses }},
		{"ahi_cache_admitted_total", func() int64 { return rc.Stats().Admitted }},
		{"ahi_cache_rejected_total", func() int64 { return rc.Stats().Rejected }},
		{"ahi_cache_invalidations_total", func() int64 { return rc.Stats().Invalidations }},
		{"ahi_cache_evictions_total", func() int64 { return rc.Stats().Evictions }},
		{"ahi_cache_bytes", rc.Bytes},
	} {
		reg.GaugeFunc(m.name, lbl, m.f)
	}
}

// ResizeCache re-targets the result cache to the configured fraction of
// a new memory budget (shard rebalancing moves budgets between trees),
// growing or shrinking it. A resize that changes the bucket count swaps
// in an empty table of the new size, dropping the cached working set; one
// that does not is free. No-op without a cache.
func (a *Adaptive) ResizeCache(budget int64) {
	if a.Tree.rcache == nil {
		return
	}
	a.Tree.rcache.Resize(int64(a.cacheFrac * float64(budget)))
}

// CacheStats snapshots the result cache counters (zero without a cache).
func (a *Adaptive) CacheStats() cache.Stats { return a.Tree.rcache.Stats() }

// CacheBytes reports the cache's budget charge (0 without a cache).
func (a *Adaptive) CacheBytes() int64 { return a.Tree.rcache.Bytes() }

// distribution reports the per-encoding leaf population for epoch
// snapshots, straight off the tree's atomic per-encoding counters.
func (a *Adaptive) distribution() []obs.EncodingClass {
	sc, pc, gc := a.Tree.LeafCounts()
	sb, pb, gb := a.Tree.LeafBytes()
	return []obs.EncodingClass{
		{Name: "succinct", Units: sc, Bytes: sb},
		{Name: "packed", Units: pc, Bytes: pb},
		{Name: "gapped", Units: gc, Bytes: gb},
	}
}

// unitCounts reports leaves per encoding class for Equation (1) and the
// budget-derived k. "Compressed" covers Succinct and Packed leaves,
// "Uncompressed" the Gapped ones.
func (a *Adaptive) unitCounts() core.UnitCounts {
	t := a.Tree
	sc, pc, gc := t.LeafCounts()
	sb, pb, gb := t.LeafBytes()
	u := core.UnitCounts{
		Compressed:   sc + pc,
		Uncompressed: gc,
	}
	if u.Compressed > 0 {
		u.CompressedAvg = (sb + pb) / u.Compressed
	} else {
		u.CompressedAvg = int64(LeafCap*2*8)/4 + leafHeaderBytes // ~1KB succinct estimate
	}
	if u.Uncompressed > 0 {
		u.UncompressedAvg = gb / u.Uncompressed
	} else {
		u.UncompressedAvg = int64(LeafCap*2*8) + leafHeaderBytes
	}
	return u
}

// heuristic is the tree's CSHF (Figure 7): hot leaves expand to Gapped
// when the budget allows; leaves that cooled down recently hold at Packed;
// leaves cold for two consecutive classifications compact to Succinct;
// leaves cold through their whole remembered history stop being tracked.
func (a *Adaptive) heuristic(l *Leaf, _ *LeafCtx, st *core.Stats, env core.Env) core.Action {
	enc := l.Encoding()
	if env.Hot {
		if enc == EncGapped {
			return core.Action{}
		}
		// Expanding costs the size difference between Gapped and current.
		cost := int64(LeafCap*2*8) - int64(l.box.Load().p.bytes())
		if env.BudgetRemaining > cost {
			return core.Action{Target: EncGapped, Migrate: true}
		}
		// No headroom: at least leave the compact encoding in place.
		return core.Action{}
	}
	// Cold now. Figure 7's decision tree branches on the memory budget
	// first: while the index exceeds its budget, cold leaves compact
	// immediately instead of waiting out the history confirmation.
	if enc != EncSuccinct && (a.impatient || env.BudgetRemaining < 0) {
		return core.Action{Target: EncSuccinct, Migrate: true}
	}
	switch {
	case st.HistoryLen >= 6 && st.HotCount() == 0:
		// Never hot in remembered history: compact fully and stop tracking.
		if enc != EncSuccinct {
			return core.Action{Target: EncSuccinct, Migrate: true, Evict: true}
		}
		return core.Action{Evict: true}
	case st.HistoryLen >= 2 && st.History&0b11 == 0:
		// Cold for the last two phases: back to Succinct.
		if enc != EncSuccinct {
			return core.Action{Target: EncSuccinct, Migrate: true}
		}
	case enc == EncGapped && st.HistoryLen >= 1:
		// Just cooled down: hold at Packed (cheap to re-expand, half the
		// Gapped footprint) until the classification confirms.
		return core.Action{Target: EncPacked, Migrate: true}
	}
	return core.Action{}
}

// migrate is the manager's migration callback; leaf identity is stable.
// On durable trees each applied migration is logged as a redo-optional
// RecAdapt record — recovery skips them (the manager re-derives encoding
// decisions), but the log preserves the adaptation timeline for audit.
func (a *Adaptive) migrate(l *Leaf, _ LeafCtx, target core.Encoding) (*Leaf, bool) {
	ok := a.Tree.MigrateLeaf(l, target)
	if ok && a.dur != nil {
		a.dur.logAdapt(l.id, uint8(target))
	}
	return l, ok
}

// DrainMigrations blocks until every queued asynchronous migration has
// been applied. No-op without AsyncMigrations.
func (a *Adaptive) DrainMigrations() { a.Mgr.DrainMigrations() }

// RunQueuedMigration executes one queued migration on the calling
// goroutine (ExternalMigrations mode). Returns false when no work was
// available.
func (a *Adaptive) RunQueuedMigration() bool { return a.Mgr.RunQueuedMigration() }

// MigrationBacklog reports queued plus backpressure-deferred migrations.
func (a *Adaptive) MigrationBacklog() int { return a.Mgr.MigrationBacklog() }

// Close flushes and stops the asynchronous migration pipeline, then — on
// durable trees — stops the checkpointer and closes the write-ahead log
// (final fsync, so a clean shutdown loses nothing under any policy).
// Safe to call multiple times.
func (a *Adaptive) Close() {
	a.Mgr.Close()
	if a.dur != nil {
		a.dur.close(a)
	}
}

// Session is a per-goroutine handle that performs tracked index
// operations: the embedded sampler holds the thread-local skip counter and
// (in TLS mode) the thread-local sample map. It also owns the cache-path
// scratch and pre-bound tracking callbacks, keeping the batch hot path
// free of allocations.
type Session struct {
	a       *Adaptive
	sampler *core.Sampler[*Leaf, LeafCtx]

	c          *cache.Cache // the tree's cache (nil = disabled)
	cb         *cacheBatch
	sampleBuf  []int    // the batch's sampled offsets, ascending
	sampleBits []uint64 // the same offsets as a bitset (drawSamples)
	admitTick  uint32

	trackReadFn func(int, *Leaf)
	trackMissFn func(int, *Leaf)
	trackInsFn  func(int, *Leaf, bool)
	trackScanFn func(*Leaf)

	// Flight-recorder state (flight.go). rec is nil unless tracing was
	// enabled when the session was created; the probe is reused across
	// ops, so a Session must stay single-goroutine (which it already
	// must, for the sampler).
	rec     *obs.OpRecorder
	probe   obs.OpProbe
	recTick uint32

	// walBuf is the session's reusable WAL payload scratch (durable trees
	// only); Append copies it into the log's buffer before returning.
	walBuf []byte
}

// NewSession creates a tracked session. Each goroutine needs its own.
func (a *Adaptive) NewSession() *Session {
	s := &Session{a: a, sampler: a.Mgr.NewSampler(), c: a.Tree.rcache, cb: &cacheBatch{}}
	s.trackReadFn = s.trackRead
	s.trackMissFn = s.trackMiss
	s.trackInsFn = s.trackInsert
	s.trackScanFn = s.trackScan
	s.rec = a.flight
	return s
}

// Lookup is a tracked point query. Sampled lookups bypass the cache: they
// walk the tree and track their leaf exactly as without a cache — the
// adaptation signal must not see the cache's hit filtering — and their
// result is admitted pre-warmed (the sampler just declared the key hot).
func (s *Session) Lookup(k uint64) (uint64, bool) {
	ev := s.beginOp(obs.OpLookup, k)
	sample := s.sampler.IsSample()
	var snap uint64 // taken before the tree read; Admit re-validates it
	if s.c != nil {
		if sample {
			snap = s.c.Snap(k)
		} else if v, sn, torn, hit := s.c.ProbeOrSnapProf(k); hit {
			if ev != nil {
				ev.CacheTorn, ev.CacheHit, ev.Found = torn, true, true
				s.finishOp()
			}
			return v, true
		} else {
			snap = sn
			if ev != nil {
				ev.CacheTorn = torn
			}
		}
	}
	v, leaf, ok := s.a.Tree.lookupLeaf(k, ev)
	if sample {
		s.sampler.Track(leaf, core.Read, LeafCtx{})
	}
	if ok && s.c != nil {
		s.c.Admit(k, v, snap, sample, sample || s.admitGate())
	}
	if ev != nil {
		ev.Found = ok
		s.finishOp()
	}
	return v, ok
}

// admitGate is the admission doorkeeper for non-sampled misses: under a
// skewed workload most misses are tail singletons, and evicting a live
// entry for each one churns the cache. The verdict only matters when the
// bucket is full of other keys — Admit always allows refreshing a key's
// own slot or filling an empty way, so an invalidated hot key re-enters
// on its first post-write miss — and letting every fourth miss evict
// quarters the churn while a genuinely hot key still lands in the cache
// within a handful of occurrences. Sampler-declared hot keys bypass the
// gate entirely.
func (s *Session) admitGate() bool {
	s.admitTick++
	return s.admitTick&3 == 0
}

// Insert is a tracked insert. A write that eagerly expanded its leaf is
// always tracked — sampled or not — so the deferred compaction of §5.2 can
// find the leaf once it cools down. On a durable tree the write is logged
// before it is applied and acked once the log committed it (durable.go).
func (s *Session) Insert(k, v uint64) bool {
	ev := s.beginOp(obs.OpInsert, k)
	d := s.a.dur
	var lsn uint64
	if d != nil {
		s.walBuf = wal.EncodeInsert(s.walBuf[:0], k, v)
		lsn = d.begin(wal.RecInsert, s.walBuf)
	}
	sample := s.sampler.IsSample()
	inserted, leaf, expanded := s.a.Tree.insertTracked(k, v, ev)
	if d != nil {
		d.commit(lsn, 1, ev)
	}
	if sample || expanded {
		s.sampler.Track(leaf, core.Insert, LeafCtx{})
	}
	if ev != nil {
		ev.Found = inserted
		s.finishOp()
	}
	return inserted
}

// Delete is a tracked delete, logged like Insert on a durable tree.
func (s *Session) Delete(k uint64) bool {
	ev := s.beginOp(obs.OpDelete, k)
	d := s.a.dur
	var lsn uint64
	if d != nil {
		s.walBuf = wal.EncodeDelete(s.walBuf[:0], k)
		lsn = d.begin(wal.RecDelete, s.walBuf)
	}
	sample := s.sampler.IsSample()
	ok, leaf := s.a.Tree.deleteTracked(k, ev)
	if d != nil {
		d.commit(lsn, 1, ev)
	}
	if sample {
		s.sampler.Track(leaf, core.Delete, LeafCtx{})
	}
	if ev != nil {
		ev.Found = ok
		s.finishOp()
	}
	return ok
}

// Scan is a tracked range scan: when the scan is sampled, every visited
// leaf is tracked with the Scan access type (§4.1.3).
func (s *Session) Scan(from uint64, n int, fn func(k, v uint64) bool) int {
	ev := s.beginOp(obs.OpScan, from)
	var onLeaf func(*Leaf)
	if s.sampler.IsSample() {
		onLeaf = s.trackScanFn
	}
	visited, leaves := s.a.Tree.scanTracked(from, n, fn, onLeaf)
	if ev != nil {
		ev.Ops, ev.Leaves, ev.BulkDecode = int32(visited), int32(leaves), true
		s.finishOp()
	}
	return visited
}

// ScanBatch serves len(reqs) range requests through one fused B-link walk
// (see Tree.ScanBatch) and returns the total pairs delivered. Sampling
// draws one SampleOffsets pass over the batch, so the skip counter
// advances exactly as len(reqs) per-request scans would; when any request
// of the batch is sampled, every leaf the fused walk visits is tracked
// with the Scan access type — fusion loses the leaf→request attribution,
// so a sampled batch over-tracks only within its own walk. The flight
// recorder gets one coarse event per batch: pairs delivered (Ops),
// request count (Fanout) and leaves visited.
func (s *Session) ScanBatch(reqs []ScanReq, sink ScanSink) int {
	var k0 uint64
	if len(reqs) > 0 {
		k0 = reqs[0].From
	}
	ev := s.beginOp(obs.OpScanBatch, k0)
	s.sampleBuf = s.sampler.SampleOffsets(len(reqs), s.sampleBuf[:0])
	var onLeaf func(*Leaf)
	if len(s.sampleBuf) > 0 {
		onLeaf = s.trackScanFn
	}
	n, leaves := s.a.Tree.scanWalk(reqs, sink, nil, onLeaf)
	if ev != nil {
		ev.Ops, ev.Fanout, ev.Leaves, ev.BulkDecode = int32(n), int32(len(reqs)), int32(leaves), true
		s.finishOp()
	}
	return n
}

// trackScan is the sampled-scan leaf callback (bound once).
func (s *Session) trackScan(l *Leaf) {
	s.sampler.Track(l, core.Scan, LeafCtx{})
}

// Flush hands buffered thread-local samples to the manager (TLS mode).
func (s *Session) Flush() { s.sampler.Flush() }

// Train runs offline training (§3.2): replay expands the most frequently
// accessed leaves first, within the memory budget. The input maps a key to
// its historic access count; keys sharing a leaf aggregate automatically.
func (a *Adaptive) Train(keyFreqs map[uint64]uint64) int {
	leafFreq := make(map[*Leaf]uint64)
	for k, f := range keyFreqs {
		_, leaf, _ := a.Tree.lookupLeaf(k, nil)
		leafFreq[leaf] += f
	}
	freqs := make([]core.IDFreq[*Leaf, LeafCtx], 0, len(leafFreq))
	for l, f := range leafFreq {
		freqs = append(freqs, core.IDFreq[*Leaf, LeafCtx]{ID: l, Freq: f})
	}
	return a.Mgr.TrainOffline(freqs)
}
