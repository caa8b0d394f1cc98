package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"ahi/internal/btree"
	"ahi/internal/dataset"
	"ahi/internal/workload"
)

// The cache experiment measures the per-tree hot-key result cache (probed
// before the tree walk, charged against the memory budget).
//
// Part 1 — hit path: Zipf skew x cache fraction sweep over a 95/5
// read/overwrite mix through sessions, in two operation modes: single-key
// (Lookup/Insert per op — the point-query path, where every uncached hot
// key pays a full root-to-leaf descent and cold-leaf decode) and batched
// (LookupBatch/InsertBatch at 128, where the AMAC kernel already collapses
// duplicate hot keys onto shared leaf runs, so the cache's headroom is
// structurally smaller). The fraction=0 column of each (skew, mode) is the
// baseline; the cache columns trade that slice of the SAME memory budget
// for cached results, so speedups are iso-memory.
//
// Part 2 — working-set replay (cacheReplayPart).

// cacheSkews, cacheFractions and cacheOpBatches are the sweep axes;
// batch=1 issues per-key Lookup/Insert, batch>1 the batched session ops.
var (
	cacheSkews     = []float64{0.8, 0.99, 1.2}
	cacheFractions = []float64{0, 0.05, 0.10}
	cacheOpBatches = []int{1, cacheBatchSize}
)

// Cache experiment seeds; every sub-run re-seeds its distribution so all
// cells replay identical key sequences.
const (
	cacheSweepSeed  = 11 // Zipf draw sequence, hit-path sweep
	cacheInsertSeed = 17 // overwrite-key draw sequence
)

// cacheBatchSize is the session batch size; cacheInsertEvery makes one
// batch in twenty an overwrite batch (the 95/5 mix).
const (
	cacheBatchSize   = 128
	cacheInsertEvery = 20
)

// Sampling knobs for the cache cells: the paper-default skip band
// [50, 500] rather than the aggressive skips the adaptation experiments
// use. Sampled lookups bypass the cache by design (the adaptation signal
// must not see hit filtering), so a skip of 4 would take a quarter of all
// traffic away from the cache — no serving deployment samples that hard.
// MaxSampleSize keeps phases completing at these skips.
const (
	cacheSkip      = 50
	cacheMaxSkip   = 500
	cacheMaxSample = 2048
)

// CacheRow is one (skew, batch, fraction) cell of the hit-path sweep.
// MeanNs/MopsPerS/Speedup cover the LOOKUPS of the mix: the 5% overwrites
// run interleaved (they keep invalidation pressure on the cache and the
// migration pipeline busy) but are timed separately as WriteNs — an
// overwrite into a Succinct leaf re-encodes the whole leaf, and folding
// that into the lookup number would drown the read path under write cost
// common to both columns.
type CacheRow struct {
	Skew     float64
	Batch    int
	Fraction float64
	MeanNs   float64
	MopsPerS float64
	// Speedup is relative to the fraction=0 cell of the same skew and
	// batch mode.
	Speedup float64
	// WriteNs is the mean cost of the overwrite ops of the mix.
	WriteNs float64
	// HitRate is cache hits / (hits + misses) over the timed passes.
	HitRate float64
	// CacheBytes is the cache's budget charge; BudgetShare = CacheBytes
	// over the configured memory budget.
	CacheBytes  int64
	BudgetShare float64
}

// CacheReplayRow is one (fraction, batch) cell of the working-set replay
// part: pure Zipf(0.99) lookups over a pre-drawn, cycled query pool — the
// converged regime where the working set has materialized and repeats, as
// request traffic against a serving index does. This is the configuration
// the CI gate benchmarks (BenchmarkSessionLookup*/BenchmarkLookupBatch*)
// run, and where the headline cache speedup lives; the sweep above keeps
// drawing fresh tail keys forever, which is the harsher, churn-heavy view.
type CacheReplayRow struct {
	Batch    int
	Fraction float64
	MeanNs   float64
	MopsPerS float64
	Speedup  float64
	HitRate  float64
}

// CacheResult carries both parts.
type CacheResult struct {
	Rows       []CacheRow
	ReplayRows []CacheReplayRow
}

// cacheReps timed repetitions per cell; the fastest is reported.
const cacheReps = 3

// RunCache sweeps skew x cache fraction and runs the working-set replay.
func RunCache(sc Scale) (CacheResult, Table) {
	keys := dataset.YCSBKeys(sc.ConsecU64, 5)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	// Tight budget — just above the all-Succinct floor. This is the regime
	// the cache is built for: under memory pressure most leaves stay in
	// the compressed encoding and every uncached hot lookup pays the
	// decode. With a roomy budget the adaptation manager expands the hot
	// leaves itself and a result cache has much less to add.
	budget := adaptiveBudget(keys, vals, 16)
	ops := sc.OpsPerPhase / 4

	var res CacheResult
	for _, skew := range cacheSkews {
		for _, batch := range cacheOpBatches {
			var baseNs float64
			for _, frac := range cacheFractions {
				row := cacheCell(keys, vals, budget, skew, frac, batch, ops)
				if frac == cacheFractions[0] {
					baseNs = row.MeanNs
				}
				row.Speedup = baseNs / row.MeanNs
				res.Rows = append(res.Rows, row)
			}
		}
	}
	res.ReplayRows = cacheReplayPart(keys, vals, budget, ops)

	tbl := Table{
		Title:  "Read-path cache: Zipf skew x op mode x cache fraction (95/5 mix, iso-memory)",
		Header: []string{"skew", "batch", "frac", "look ns", "Mops/s", "speedup", "write ns", "hit%", "cache", "of budget"},
	}
	for _, r := range res.Rows {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprintf("%.2f", r.Skew), fmt.Sprint(r.Batch),
			fmt.Sprintf("%.0f%%", 100*r.Fraction),
			f1(r.MeanNs), f2(r.MopsPerS), f2(r.Speedup) + "x",
			f1(r.WriteNs),
			fmt.Sprintf("%.1f", 100*r.HitRate),
			fmt.Sprintf("%.1fKiB", float64(r.CacheBytes)/1024),
			fmt.Sprintf("%.1f%%", 100*r.BudgetShare),
		})
	}
	return res, tbl
}

// cacheTree builds the adaptive tree every hit-path cell runs against.
func cacheTree(keys, vals []uint64, budget int64, frac float64) *btree.Adaptive {
	return btree.BulkLoadAdaptive(btree.AdaptiveConfig{
		Tree:          btree.Config{DefaultEncoding: btree.EncSuccinct},
		MemoryBudget:  budget,
		InitialSkip:   cacheSkip,
		MinSkip:       cacheSkip,
		MaxSkip:       cacheMaxSkip,
		MaxSampleSize: cacheMaxSample,
		CacheFraction: frac,
	}, keys, vals)
}

// cacheCell builds one adaptive tree and times the 95/5 mix against it
// in the given op mode (batch=1: per-key Lookup/Insert, else batched).
func cacheCell(keys, vals []uint64, budget int64, skew, frac float64, batch, ops int) CacheRow {
	a := cacheTree(keys, vals, budget, frac)
	s := a.NewSession()

	qk := make([]uint64, cacheBatchSize)
	qv := make([]uint64, cacheBatchSize)
	qf := make([]bool, cacheBatchSize)
	ik := make([]uint64, cacheBatchSize)
	iv := make([]uint64, cacheBatchSize)
	ib := make([]bool, cacheBatchSize)
	var sink uint64

	// Untimed warmup at the same distribution: lets the sampler converge,
	// the hot leaves expand, and the cache fill before anything is timed.
	warm := workload.NewZipf(len(keys), skew, cacheSweepSeed)
	for done := 0; done < ops/2; done += cacheBatchSize {
		for i := range qk {
			qk[i] = keys[warm.Draw()]
		}
		s.LookupBatch(qk, qv, qf)
		sink += qv[0]
	}

	var best, bestWrite float64
	var hits, misses int64
	for rep := 0; rep < cacheReps; rep++ {
		// Re-seed per repetition: identical draw sequences for every cell.
		d := workload.NewZipf(len(keys), skew, cacheSweepSeed)
		ins := workload.NewZipf(len(keys), skew, cacheInsertSeed)
		before := a.CacheStats()
		var readNs, writeNs time.Duration
		reads, writes := 0, 0
		if batch == 1 {
			// Draws are generated per chunk outside the timed region and
			// ops timed chunk-wise: per-op timestamps would cost more than
			// a cache hit does. Each chunk runs its ~5% overwrites first
			// (timed as writes), then its lookups (timed as reads).
			const chunk = 1024
			ck := make([]uint64, chunk)
			for done := 0; done < ops; done += chunk {
				c := chunk
				if rem := ops - done; rem < c {
					c = rem
				}
				w := c / cacheInsertEvery
				for i := 0; i < w; i++ {
					ck[i] = keys[ins.Draw()]
				}
				start := time.Now()
				for i := 0; i < w; i++ {
					s.Insert(ck[i], uint64(done+i))
				}
				writeNs += time.Since(start)
				writes += w
				r := c - w
				for i := 0; i < r; i++ {
					ck[i] = keys[d.Draw()]
				}
				start = time.Now()
				for i := 0; i < r; i++ {
					v, _ := s.Lookup(ck[i])
					sink += v
				}
				readNs += time.Since(start)
				reads += r
			}
		} else {
			batches := 0
			for done := 0; done < ops; done += batch {
				batches++
				if batches%cacheInsertEvery == 0 {
					// Overwrite batch: new values for existing (hot-skewed)
					// keys, exercising invalidation against a warm cache.
					for i := range ik {
						ik[i] = keys[ins.Draw()]
						iv[i] = uint64(done + i)
					}
					start := time.Now()
					s.InsertBatch(ik, iv, ib)
					writeNs += time.Since(start)
					writes += batch
					continue
				}
				for i := range qk {
					qk[i] = keys[d.Draw()]
				}
				start := time.Now()
				s.LookupBatch(qk, qv, qf)
				readNs += time.Since(start)
				reads += batch
				sink += qv[0]
			}
		}
		after := a.CacheStats()
		hits += after.Hits - before.Hits
		misses += after.Misses - before.Misses
		ns := float64(readNs.Nanoseconds()) / float64(reads)
		if best == 0 || ns < best {
			best = ns
		}
		if writes > 0 {
			wns := float64(writeNs.Nanoseconds()) / float64(writes)
			if bestWrite == 0 || wns < bestWrite {
				bestWrite = wns
			}
		}
	}
	_ = sink

	row := CacheRow{
		Skew: skew, Batch: batch, Fraction: frac,
		MeanNs:     best,
		MopsPerS:   1e3 / best,
		WriteNs:    bestWrite,
		CacheBytes: a.CacheBytes(),
	}
	if tot := hits + misses; tot > 0 {
		row.HitRate = float64(hits) / float64(tot)
	}
	if budget > 0 {
		row.BudgetShare = float64(row.CacheBytes) / float64(budget)
	}
	a.Close()
	runtime.GC()
	return row
}

// cacheReplayPool is the number of pre-drawn Zipf(0.99) queries the
// replay part cycles through; a power of two so window offsets wrap with
// a mask. Large enough (256K draws) that the pool's own key diversity is
// the workload's, not an artifact of the pool size.
const cacheReplayPool = 1 << 18

// cacheReplayPart times pure lookups over a fixed, pre-drawn Zipf(0.99)
// query pool, cycled. Unlike the sweep no fresh tail keys are drawn inside
// the timed region: the working set has materialized and repeats, which is
// what converged request traffic against a serving index looks like and
// exactly what the CI gate benchmarks measure. The headline cache speedup
// lives here; the fresh-draw 95/5 sweep above is the harsher view.
func cacheReplayPart(keys, vals []uint64, budget int64, ops int) []CacheReplayRow {
	pool := make([]uint64, cacheReplayPool)
	d := workload.NewZipf(len(keys), 0.99, cacheSweepSeed)
	for i := range pool {
		pool[i] = keys[d.Draw()]
	}
	qv := make([]uint64, cacheBatchSize)
	qf := make([]bool, cacheBatchSize)
	var rows []CacheReplayRow
	base := map[int]float64{}
	for _, frac := range []float64{0, 0.10} {
		a := cacheTree(keys, vals, budget, frac)
		s := a.NewSession()
		// Warm: full batched passes over the pool fill the cache and let
		// the sampler converge before anything is timed.
		for pass := 0; pass < 2; pass++ {
			for off := 0; off+cacheBatchSize <= len(pool); off += cacheBatchSize {
				s.LookupBatch(pool[off:off+cacheBatchSize], qv, qf)
			}
		}
		for _, batch := range cacheOpBatches {
			before := a.CacheStats()
			var best float64
			var sink uint64
			for rep := 0; rep < cacheReps; rep++ {
				var elapsed time.Duration
				if batch == 1 {
					const chunk = 1024
					for done := 0; done < ops; done += chunk {
						c := chunk
						if rem := ops - done; rem < c {
							c = rem
						}
						off := done & (len(pool) - 1)
						start := time.Now()
						for i := off; i < off+c; i++ {
							v, _ := s.Lookup(pool[i])
							sink += v
						}
						elapsed += time.Since(start)
					}
				} else {
					start := time.Now()
					for done := 0; done < ops; done += batch {
						off := done & (len(pool) - 1)
						s.LookupBatch(pool[off:off+batch], qv, qf)
					}
					elapsed = time.Since(start)
				}
				ns := float64(elapsed.Nanoseconds()) / float64(ops)
				if best == 0 || ns < best {
					best = ns
				}
			}
			_ = sink
			after := a.CacheStats()
			row := CacheReplayRow{
				Batch: batch, Fraction: frac,
				MeanNs: best, MopsPerS: 1e3 / best,
			}
			if tot := (after.Hits - before.Hits) + (after.Misses - before.Misses); tot > 0 {
				row.HitRate = float64(after.Hits-before.Hits) / float64(tot)
			}
			if frac == 0 {
				base[batch] = best
			}
			row.Speedup = base[batch] / best
			rows = append(rows, row)
		}
		a.Close()
		runtime.GC()
	}
	return rows
}

func renderCacheReplay(w io.Writer, rows []CacheReplayRow) {
	tbl := Table{
		Title:  "Working-set replay: pure Zipf(0.99) lookups over a cycled 256K-draw pool",
		Header: []string{"batch", "frac", "lat ns", "Mops/s", "speedup", "hit%"},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(r.Batch), fmt.Sprintf("%.0f%%", 100*r.Fraction),
			f1(r.MeanNs), f2(r.MopsPerS), f2(r.Speedup) + "x",
			fmt.Sprintf("%.1f", 100*r.HitRate),
		})
	}
	tbl.Render(w)
}
