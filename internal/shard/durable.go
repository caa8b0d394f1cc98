package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"ahi/internal/btree"
)

// RecoveryStats aggregates per-shard recovery results. Shards recover in
// parallel, so WallNs is the wall time of the slowest shard plus fan-out
// overhead, not the sum of per-shard times.
type RecoveryStats struct {
	// PerShard holds shard i's tree-level recovery stats at index i.
	PerShard []btree.RecoveryStats
	// WarmShards counts shards restored from a valid checkpoint.
	WarmShards int
	// Segments, Replayed, SkippedRedoOptional and TornBytes are sums of
	// the per-shard fields.
	Segments            int
	Replayed            int
	SkippedRedoOptional int
	TornBytes           int64
	// WallNs is the end-to-end parallel recovery wall time.
	WallNs int64
}

// Open creates a durable ShardedBTree: shard i logs to and recovers from
// <Dur.Dir>/shard<i>, so the per-shard logs never contend on one file and
// recovery replays all shards in parallel. With Adaptive.Dur nil it is
// equivalent to New. The key-space split must match across restarts — the
// routing bounds are derived from the shard count, not persisted, so
// reopening with a different Shards value scatters keys to the wrong logs.
func Open(cfg Config) (*ShardedBTree, *RecoveryStats, error) {
	cfg.setDefaults()
	n := cfg.Shards
	bounds := make([]uint64, n-1)
	stride := ^uint64(0)/uint64(n) + 1
	for i := range bounds {
		bounds[i] = stride * uint64(i+1)
	}
	if cfg.Adaptive.Dur == nil {
		return build(cfg, bounds, nil, nil), &RecoveryStats{PerShard: make([]btree.RecoveryStats, n)}, nil
	}

	base := *cfg.Adaptive.Dur
	s := newSkeleton(cfg, bounds)
	stats := &RecoveryStats{PerShard: make([]btree.RecoveryStats, n)}
	start := time.Now()

	trees := make([]*btree.Adaptive, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		acfg := s.perShardCfg(cfg, i)
		dc := base
		dc.Dir = filepath.Join(base.Dir, fmt.Sprintf("shard%d", i))
		acfg.Dur = &dc
		wg.Add(1)
		go func(i int, acfg btree.AdaptiveConfig) {
			defer wg.Done()
			a, st, err := btree.OpenAdaptive(acfg)
			if err != nil {
				errs[i] = fmt.Errorf("shard%d: %w", i, err)
				return
			}
			trees[i] = a
			stats.PerShard[i] = *st
		}(i, acfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, a := range trees {
				if a != nil {
					a.Close()
				}
			}
			return nil, nil, err
		}
	}
	for i, a := range trees {
		s.shards[i] = &shardState{a: a}
		st := &stats.PerShard[i]
		if st.WarmStart {
			stats.WarmShards++
		}
		stats.Segments += st.Segments
		stats.Replayed += st.Replayed
		stats.SkippedRedoOptional += st.SkippedRedoOptional
		stats.TornBytes += st.TornBytes
	}
	stats.WallNs = time.Since(start).Nanoseconds()
	s.finishBuild(cfg)
	return s, stats, nil
}

// Checkpoint snapshots every shard in parallel and returns the first
// error. Each shard's checkpoint cuts its own barrier, so the set is not
// a global consistent cut — it doesn't need to be: shards own disjoint
// key ranges and each log replays independently.
func (s *ShardedBTree) Checkpoint() error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		go func(i int, a *btree.Adaptive) {
			defer wg.Done()
			if err := a.Checkpoint(); err != nil {
				errs[i] = fmt.Errorf("shard%d: %w", i, err)
			}
		}(i, sh.a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// SyncWAL forces every shard's log to stable storage (no-op on volatile
// trees).
func (s *ShardedBTree) SyncWAL() error {
	for i, sh := range s.shards {
		if err := sh.a.SyncWAL(); err != nil {
			return fmt.Errorf("shard%d: %w", i, err)
		}
	}
	return nil
}
