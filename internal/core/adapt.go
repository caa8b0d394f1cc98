package core

import (
	"math"
	"sort"
	"time"

	"ahi/internal/obs"
	"ahi/internal/topk"
)

// candidate is one tracked unit copied out of the sample store for
// classification. Entries are copied (not referenced) because in GS mode
// other workers keep mutating the store while the adaptation runs.
type candidate[ID comparable, Ctx any] struct {
	id    ID
	ctx   Ctx
	stats Stats
	hot   bool
}

// adapt runs Phase II (§3.1.4): classify, apply the CSHF and migrations,
// then adapt skip length and sample size, and open the next epoch.
func (m *Manager[ID, Ctx]) adapt(epoch uint32) {
	x := m.cfg.Obs
	var phaseStart time.Time
	if x != nil {
		phaseStart = time.Now()
	}
	units := m.cfg.Units()
	k := m.budgetK(units)

	// 1. Collect current-epoch candidates and classify in a single pass.
	//    Stale-epoch entries are cold by definition and are still
	//    evaluated (their heuristic may compact or evict them). The
	//    candidate and hot-mark buffers persist across epochs (adapt runs
	//    exclusively); entries are overwritten each phase.
	cands := m.candScratch[:0]
	cls := topk.NewClassifier(k)
	collect := func(id ID, e *entry[Ctx]) bool {
		cands = append(cands, candidate[ID, Ctx]{id: id, ctx: e.ctx, stats: e.stats})
		return true
	}
	if m.shared != nil {
		m.shared.Range(collect)
	} else {
		m.mergeMu.Lock()
		m.local.Range(collect)
		m.mergeMu.Unlock()
	}
	var hotMark []bool
	if cap(m.hotScratch) >= len(cands) {
		hotMark = m.hotScratch[:len(cands)]
		clear(hotMark)
	} else {
		hotMark = make([]bool, len(cands))
	}
	for i := range cands {
		if cands[i].stats.LastEpoch != epoch {
			continue // not sampled this phase: cold without a heap visit
		}
		cls.Offer(topk.Entry{
			Item:     i,
			Priority: cands[i].stats.Freq(),
		})
	}
	for _, e := range cls.Hot() {
		hotMark[e.Item] = true
	}
	// A phase whose sampled accesses went mostly to hot units the manager
	// had never tracked saw the hot set move (a first phase, with nothing
	// tracked before it, saw a start, not a move).
	hotCount := 0
	tracked := false
	var mass, newHotMass uint64
	for i := range cands {
		c := &cands[i]
		c.hot = hotMark[i]
		if c.hot {
			hotCount++
		}
		if c.stats.HistoryLen > 0 {
			tracked = true
		} else if c.stats.LastEpoch == epoch && c.hot {
			newHotMass += c.stats.Freq()
		}
		if c.stats.LastEpoch == epoch {
			mass += c.stats.Freq()
		}
	}
	shifted := tracked && 2*newHotMass > mass

	// 2. Evaluate the CSHF for every tracked unit and apply migrations —
	//    inline by default, or as targets for the asynchronous workers
	//    when AsyncMigrations is on. A target never re-encodes here, so
	//    the proposing goroutine returns after classification however
	//    deep the backlog is.
	budget := m.budget(units)
	env := Env{Epoch: epoch}
	migrations, queued, evictions, deduped := 0, 0, 0, 0
	backpressured, coalescedTriggers := 0, 0
	// Backpressure is judged from the backlog earlier phases left behind,
	// not from this phase's own burst: the workers get a whole phase to
	// drain what it proposes, and only what they could not is a sign
	// that proposals outrun them.
	behind := m.MigrationBacklog() >= BackpressureBacklog
	for i := range cands {
		c := &cands[i]
		c.stats.PushClassification(c.hot)
		if budget == math.MaxInt64 {
			env.BudgetRemaining = math.MaxInt64
		} else {
			env.BudgetRemaining = budget - m.cfg.UsedMemory() - m.charged()
		}
		env.Hot = c.hot
		act := m.cfg.Heuristic(c.id, &c.ctx, &c.stats, env)
		newID := c.id
		if act.Migrate {
			// Trace classification: hot units migrate because the top-k
			// pass classified them; cold units under a blown budget
			// compact under budget pressure; everything else is the
			// CSHF's own (history-driven) decision.
			trig := obs.TriggerCSHF
			if env.Hot {
				trig = obs.TriggerTopK
			} else if env.BudgetRemaining < 0 {
				trig = obs.TriggerBudget
			}
			from := int16(-1)
			if x != nil && m.cfg.EncodingOf != nil {
				if e, known := m.cfg.EncodingOf(c.id); known {
					from = int16(e)
				}
			}
			if m.pend != nil {
				job := pending[Ctx]{ctx: c.ctx, target: act.Target, epoch: epoch, from: from, trig: trig}
				if x != nil {
					job.enqueuedAt = time.Now().UnixNano()
				}
				res := m.pend.propose(c.id, job)
				switch res {
				case proposedNew:
					queued++
				case proposedReplaced:
					coalescedTriggers++
				case proposedSame:
					deduped++
				}
				if res != proposedClosed && behind {
					backpressured++
				}
			} else {
				var t0 time.Time
				if x != nil {
					t0 = time.Now()
				}
				id2, ok := m.cfg.Migrate(c.id, c.ctx, act.Target)
				if x != nil {
					x.RecordMigration(epoch, m.cfg.Hash(c.id), from, uint8(act.Target),
						trig, false, ok, 0, time.Since(t0).Nanoseconds())
				}
				if ok {
					newID = id2
					migrations++
				}
			}
		}
		m.storeBack(c.id, newID, c, act.Evict)
		if act.Evict {
			evictions++
		}
	}
	m.totalMigrations.Add(int64(migrations))
	m.backpressured.Add(int64(backpressured))
	m.coalesced.Add(int64(coalescedTriggers))
	m.dedupedEnqueues.Add(int64(deduped))
	m.totalAdapts.Add(1)
	uniqueSamples := len(cands)
	m.candScratch = cands[:0]
	m.hotScratch = hotMark[:0]

	// 3. Adapt sampling parameters (§3.1.4): migration churn over the
	//    sampled accesses steers the skip length within [MinSkip, MaxSkip].
	sampled := m.sampled.Load()
	if m.cfg.AdaptiveSkip && sampled > 0 {
		skip := m.globalSkip.Load()
		switch {
		case backpressured > 0:
			// Proposals outran the workers: decay trigger sensitivity so
			// the next phase samples (and proposes) less while the backlog
			// clears.
			skip *= 2
		case shifted:
			// The hot set moved: sample from the floor again, as a new
			// manager does, so that the next phases follow the new hot
			// set instead of waiting out a MaxSkip-long period. Churn
			// alone misses this when a small hot range moves: its
			// migrations are a few percent of the samples.
			skip = int64(m.cfg.MinSkip)
		default:
			// Queued migrations count as churn: the decision was made this
			// phase even if the re-encoding executes asynchronously.
			share := float64(migrations+queued) / float64(sampled)
			switch {
			case share > 0.30:
				skip /= 2
			case share < 0.10:
				skip *= 2
			}
		}
		if skip < int64(m.cfg.MinSkip) {
			skip = int64(m.cfg.MinSkip)
		}
		if skip > int64(m.cfg.MaxSkip) {
			skip = int64(m.cfg.MaxSkip)
		}
		m.globalSkip.Store(skip)
	}
	newSize := m.clampSampleSize(topk.SampleSize(int(units.Total()), k, m.cfg.Epsilon, m.cfg.Delta))
	m.sampleSize.Store(int64(newSize))

	// 4. Open the next phase: bump the epoch, reset counters, signal the
	//    samplers to reset their Bloom filters.
	m.sampled.Store(0)
	m.epoch.Add(1)
	m.filterEpoch.Add(1)

	if x != nil {
		adaptNs := time.Since(phaseStart).Nanoseconds()
		x.Adapts.Inc()
		x.AdaptNs.Observe(adaptNs)
		x.Backpressure.Add(int64(backpressured))
		x.Coalesced.Add(int64(coalescedTriggers))
		x.Deduped.Add(int64(deduped))
		x.Evictions.Add(int64(evictions))
		tracked, fwBytes := m.StoreStats()
		snap := obs.Snapshot{
			Epoch:          epoch,
			Skip:           int(m.globalSkip.Load()),
			SampleSize:     newSize,
			SampledTotal:   sampled,
			UniqueSamples:  uniqueSamples,
			Hot:            hotCount,
			K:              k,
			Migrations:     migrations + queued,
			Queued:         queued,
			Backpressured:  backpressured,
			Coalesced:      coalescedTriggers,
			Deduped:        deduped,
			Evicted:        evictions,
			PipeDepth:      m.MigrationBacklog(),
			TrackedUnits:   tracked,
			FrameworkBytes: fwBytes,
			UsedBytes:      m.cfg.UsedMemory(),
			ChargedBytes:   m.charged(),
			AdaptNs:        adaptNs,
		}
		if budget != math.MaxInt64 {
			snap.BudgetBytes = budget
		}
		if m.cfg.Distribution != nil {
			snap.Encodings = m.cfg.Distribution()
		}
		x.RecordSnapshot(snap)
	}

	if m.cfg.OnAdapt != nil {
		m.cfg.OnAdapt(AdaptInfo{
			Epoch:         epoch,
			UniqueSamples: uniqueSamples,
			SampledTotal:  sampled,
			Hot:           hotCount,
			Migrations:    migrations,
			Queued:        queued,
			Backpressured: backpressured,
			Coalesced:     coalescedTriggers,
			Deduped:       deduped,
			Backlog:       m.MigrationBacklog(),
			LastDrainNs:   m.lastDrainNs.Load(),
			Evicted:       evictions,
			NewSkip:       int(m.globalSkip.Load()),
			NewSampleSize: newSize,
			K:             k,
		})
	}
}

// storeBack writes the updated stats (history, possibly new identity) back
// into the sample store, or removes the entry on eviction. An entry that
// is no longer present was removed by a migration callback (e.g. the
// Hybrid Trie forgetting the descendants of a compacted subtree) and must
// stay gone — resurrecting it would let a stale identifier act on a
// recycled node in a later phase.
func (m *Manager[ID, Ctx]) storeBack(oldID, newID ID, c *candidate[ID, Ctx], evict bool) {
	update := func(e *entry[Ctx], created bool) {
		// Concurrent samplers may have advanced the counters; only the
		// classification history and identity are authoritative here.
		e.stats.History = c.stats.History
		e.stats.HistoryLen = c.stats.HistoryLen
		if created {
			e.stats.Reads = c.stats.Reads
			e.stats.Writes = c.stats.Writes
			e.stats.LastEpoch = c.stats.LastEpoch
			e.ctx = c.ctx
		}
	}
	if m.shared != nil {
		present := m.shared.Delete(oldID)
		if evict || !present {
			return
		}
		m.shared.Upsert(newID, update)
		return
	}
	m.mergeMu.Lock()
	defer m.mergeMu.Unlock()
	present := m.local.Delete(oldID)
	if evict || !present {
		return
	}
	m.local.Upsert(newID, update)
}

// IDFreq pairs an identifier with an observed (historic or predicted)
// access frequency for offline training.
type IDFreq[ID comparable, Ctx any] struct {
	ID   ID
	Ctx  Ctx
	Freq uint64
}

// TrainOffline implements §3.2: given per-unit frequencies from a historic
// or predicted workload, rank units by frequency and migrate the most
// promising ones — as proposed by each unit's CSHF evaluation with
// Hot=true — until the memory budget is exhausted or all units are
// optimized. It returns the number of performed migrations.
func (m *Manager[ID, Ctx]) TrainOffline(freqs []IDFreq[ID, Ctx]) int {
	sort.Slice(freqs, func(i, j int) bool { return freqs[i].Freq > freqs[j].Freq })
	units := m.cfg.Units()
	budget := m.budget(units)
	migrations := 0
	for i := range freqs {
		if budget != math.MaxInt64 && m.cfg.UsedMemory()+m.charged() >= budget {
			break
		}
		st := Stats{Reads: uint32(freqs[i].Freq), LastEpoch: m.epoch.Load()}
		st.PushClassification(true)
		env := Env{Epoch: m.epoch.Load(), Hot: true}
		if budget == math.MaxInt64 {
			env.BudgetRemaining = math.MaxInt64
		} else {
			env.BudgetRemaining = budget - m.cfg.UsedMemory() - m.charged()
		}
		act := m.cfg.Heuristic(freqs[i].ID, &freqs[i].Ctx, &st, env)
		if !act.Migrate {
			continue
		}
		x := m.cfg.Obs
		var t0 time.Time
		if x != nil {
			t0 = time.Now()
		}
		_, ok := m.cfg.Migrate(freqs[i].ID, freqs[i].Ctx, act.Target)
		if x != nil {
			x.RecordMigration(m.epoch.Load(), m.cfg.Hash(freqs[i].ID), -1,
				uint8(act.Target), obs.TriggerOffline, false, ok, 0, time.Since(t0).Nanoseconds())
		}
		if ok {
			migrations++
		}
	}
	m.totalMigrations.Add(int64(migrations))
	return migrations
}
