package hybridtrie

import (
	"ahi/internal/art"
	"ahi/internal/core"
	"ahi/internal/hashmap"
	"ahi/internal/obs"
)

// Ctx is the tracked context per boundary handle: the parent node, the key
// label under which the handle hangs, and the root path — the paper's
// "parent identifier, key label within the parent, and the FST node
// number" (§4.2.2; the FST number is the handle itself here). The path
// prefix lets compactions re-derive FST node numbers and expansions build
// full leaf keys.
type Ctx struct {
	Parent art.Handle
	Label  byte
	Prefix []byte // key bytes from the root to the handle (len == depth)
}

// AdaptiveConfig configures an adaptive Hybrid Trie (AHI-Trie).
type AdaptiveConfig struct {
	Trie Config
	// MemoryBudget bounds the total (FST + ART) size in bytes; 0 = off.
	MemoryBudget int64
	// RelativeBudget, if positive, bounds the ART overlay to this fraction
	// of a fully expanded trie (estimated as FST size + expansion average
	// times the node count); see core.Config.RelativeBudget.
	RelativeBudget float64
	// Sampling knobs (defaults as in core).
	InitialSkip      int
	MinSkip, MaxSkip int
	FixedSkip        bool
	DisableBloom     bool
	Epsilon, Delta   float64
	MaxSampleSize    int
	OnAdapt          func(core.AdaptInfo)
	// Obs attaches an observability sink (metrics, migration trace, epoch
	// snapshots); nil disables all instrumentation. ObsSource labels the
	// trie's series in a shared registry.
	Obs       *obs.Observability
	ObsSource string
}

// Adaptive is the workload-adaptive Hybrid Trie. The paper evaluates the
// trie single-threaded (inserts are future work); so does this type: use
// one Session from one goroutine.
type Adaptive struct {
	Trie *Trie
	Mgr  *core.Manager[uint64, Ctx]

	// freedThisPhase guards against acting on handles freed earlier in the
	// same adaptation pass (a compaction tears down nested expansions).
	freedThisPhase map[uint64]struct{}

	// OnMigrate, if set, observes every migration attempt (debug/tracing).
	OnMigrate func(id uint64, ctx Ctx, target core.Encoding, newID uint64, ok bool)
}

// BuildAdaptive constructs the trie and wires the adaptation manager.
func BuildAdaptive(cfg AdaptiveConfig, keys [][]byte, vals []uint64) *Adaptive {
	return WireAdaptive(Build(cfg.Trie, keys, vals), cfg)
}

// WireAdaptive attaches an adaptation manager to an existing trie (e.g.
// one loaded with ReadTrie). The cfg.Trie field is ignored.
func WireAdaptive(t *Trie, cfg AdaptiveConfig) *Adaptive {
	// Defer slot recycling across each adaptation pass: a slot freed by a
	// compaction must not be handed to an expansion while the pass may
	// still process stale references to the old handle (ABA).
	t.art.SetDeferFrees(true)
	a := &Adaptive{Trie: t, freedThisPhase: map[uint64]struct{}{}}
	userAdapt := cfg.OnAdapt
	mcfg := core.Config[uint64, Ctx]{
		Hash:           hashmap.HashU64,
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
		OnAdapt: func(ai core.AdaptInfo) {
			clear(a.freedThisPhase)
			a.Trie.art.FlushFrees()
			if userAdapt != nil {
				userAdapt(ai)
			}
		},
	}
	if cfg.Obs != nil {
		mcfg.Obs = cfg.Obs.Index(cfg.ObsSource, EncodingName)
		mcfg.Distribution = a.distribution
		mcfg.EncodingOf = func(id uint64) (core.Encoding, bool) {
			if art.Handle(id).Kind() == art.KindFST {
				return EncFST, true
			}
			return EncART, true
		}
	}
	a.Mgr = core.New(mcfg)
	return a
}

// EncodingName names the trie's encodings for observability output.
func EncodingName(e uint8) string {
	switch core.Encoding(e) {
	case EncFST:
		return "fst"
	case EncART:
		return "art"
	default:
		return "unknown"
	}
}

// distribution reports the compact (FST) vs. expanded (ART) population for
// epoch snapshots. The FST's byte figure is the static structure; the ART
// class carries the overlay's full footprint.
func (a *Adaptive) distribution() []obs.EncodingClass {
	t := a.Trie
	expanded := t.expandedCnt
	total := int64(t.fst.NumNodes())
	if total < expanded {
		total = expanded
	}
	return []obs.EncodingClass{
		{Name: "fst", Units: total - expanded, Bytes: t.FSTBytes()},
		{Name: "art", Units: expanded, Bytes: t.ARTBytes()},
	}
}

// unitCounts: the compact units are the FST's non-expanded nodes (their
// marginal cost is zero — the FST is static), the expanded units the ART
// shadows. The expansion cost per unit is the observed average ART bytes
// added beyond the static top.
func (a *Adaptive) unitCounts() core.UnitCounts {
	t := a.Trie
	expanded := t.expandedCnt
	total := int64(t.fst.NumNodes())
	if total < expanded {
		total = expanded
	}
	avgExp := int64(300)
	if expanded > 0 {
		if extra := t.art.Bytes() - t.artTopBytes; extra > 0 {
			avgExp = extra / expanded
		}
	}
	return core.UnitCounts{
		Compressed:      total - expanded,
		Uncompressed:    expanded,
		CompressedAvg:   0,
		UncompressedAvg: avgExp,
	}
}

// heuristic: hot FST handles expand when budget allows; expanded nodes
// cold for two consecutive phases compact; entries never hot across their
// remembered history stop being tracked.
func (a *Adaptive) heuristic(id uint64, _ *Ctx, st *core.Stats, env core.Env) core.Action {
	h := art.Handle(id)
	isFST := h.Kind() == art.KindFST
	if env.Hot {
		if isFST && env.BudgetRemaining > 512 {
			return core.Action{Target: EncART, Migrate: true}
		}
		return core.Action{}
	}
	switch {
	case st.HistoryLen >= 6 && st.HotCount() == 0:
		if !isFST {
			return core.Action{Target: EncFST, Migrate: true, Evict: true}
		}
		return core.Action{Evict: true}
	case !isFST && st.HistoryLen >= 2 && st.History&0b11 == 0:
		return core.Action{Target: EncFST, Migrate: true}
	}
	return core.Action{}
}

// migrate dispatches to Expand/Compact, honoring the freed-handle guard.
func (a *Adaptive) migrate(id uint64, ctx Ctx, target core.Encoding) (uint64, bool) {
	newID, ok := a.migrateInner(id, ctx, target)
	if a.OnMigrate != nil {
		a.OnMigrate(id, ctx, target, newID, ok)
	}
	return newID, ok
}

func (a *Adaptive) migrateInner(id uint64, ctx Ctx, target core.Encoding) (uint64, bool) {
	if _, dead := a.freedThisPhase[id]; dead {
		return id, false
	}
	if _, dead := a.freedThisPhase[uint64(ctx.Parent)]; dead {
		return id, false
	}
	h := art.Handle(id)
	switch target {
	case EncART:
		nh, ok := a.Trie.Expand(h, ctx.Parent, ctx.Label, ctx.Prefix)
		return uint64(nh), ok
	case EncFST:
		// Record and forget every tracked unit under the torn-down
		// subtree before freeing it, so no stale handle survives.
		a.markFreed(h)
		nh, ok := a.Trie.Compact(h, ctx.Parent, ctx.Label, ctx.Prefix)
		if !ok {
			return id, false
		}
		return uint64(nh), true
	}
	return id, false
}

func (a *Adaptive) markFreed(h art.Handle) {
	switch h.Kind() {
	case art.KindNode4, art.KindNode16, art.KindNode48, art.KindNode256:
	default:
		return
	}
	a.freedThisPhase[uint64(h)] = struct{}{}
	for _, e := range a.Trie.art.Children(h) {
		a.Mgr.Forget(uint64(e.Child))
		a.markFreed(e.Child)
	}
}

// Session performs tracked operations. Single-threaded.
type Session struct {
	a       *Adaptive
	sampler *core.Sampler[uint64, Ctx]
}

// NewSession creates the (single) tracked session.
func (a *Adaptive) NewSession() *Session {
	return &Session{a: a, sampler: a.Mgr.NewSampler()}
}

// Lookup is a tracked point query (Listing 2).
func (s *Session) Lookup(key []byte) (uint64, bool) {
	if !s.sampler.IsSample() {
		return s.a.Trie.Lookup(key)
	}
	return s.a.Trie.lookup(key, func(v boundaryVisit) {
		s.track(v, core.Read)
	})
}

// Scan is a tracked range scan; boundary nodes the scan enters are
// tracked with the Scan access type.
func (s *Session) Scan(from []byte, n int, fn func(key []byte, val uint64) bool) int {
	if !s.sampler.IsSample() {
		return s.a.Trie.Scan(from, n, fn, nil)
	}
	return s.a.Trie.Scan(from, n, fn, func(v boundaryVisit) {
		s.track(v, core.Scan)
	})
}

func (s *Session) track(v boundaryVisit, at core.AccessType) {
	prefix := append([]byte{}, v.prefix...)
	s.sampler.Track(uint64(v.handle), at, Ctx{Parent: v.parent, Label: v.label, Prefix: prefix})
}

// Train implements the offline variant (§3.2) for the trie: per-key
// predicted frequencies aggregate onto boundary handles, which are then
// expanded hottest-first within the budget.
func (a *Adaptive) Train(keys [][]byte, freqs []uint64) int {
	agg := map[uint64]core.IDFreq[uint64, Ctx]{}
	for i, k := range keys {
		var bv boundaryVisit
		var bvPrefix []byte
		seen := false
		a.Trie.lookup(k, func(v boundaryVisit) {
			if v.handle.Kind() == art.KindFST && !seen {
				bv = v
				bvPrefix = append([]byte{}, v.prefix...)
				seen = true
			}
		})
		if !seen {
			continue
		}
		id := uint64(bv.handle)
		e := agg[id]
		e.ID = id
		e.Freq += freqs[i]
		e.Ctx = Ctx{Parent: bv.parent, Label: bv.label, Prefix: bvPrefix}
		agg[id] = e
	}
	list := make([]core.IDFreq[uint64, Ctx], 0, len(agg))
	for _, e := range agg {
		list = append(list, e)
	}
	return a.Mgr.TrainOffline(list)
}
