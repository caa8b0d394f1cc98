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
// recovery replays all shards in parallel; the recovered trees are then
// wired as one group, whose manager resumes the newest shard checkpoint's
// sampling state. With Adaptive.Dur nil it is equivalent to New. The
// key-space split must match across restarts — the routing bounds are
// derived from the shard count, not persisted, so reopening with a
// different Shards value scatters keys to the wrong logs.
func Open(cfg Config) (*ShardedBTree, *RecoveryStats, error) {
	cfg.setDefaults()
	n := cfg.Shards
	if cfg.Adaptive.Dur == nil {
		return New(cfg), &RecoveryStats{PerShard: make([]btree.RecoveryStats, n)}, nil
	}
	start := time.Now()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(cfg.Adaptive.Dur.Dir, fmt.Sprintf("shard%d", i))
	}
	acfg, sources := groupConfig(cfg)
	as, per, err := btree.OpenGroup(acfg, dirs, sources)
	if err != nil {
		return nil, nil, err
	}
	stats := &RecoveryStats{PerShard: per}
	for _, st := range per {
		if st.WarmStart {
			stats.WarmShards++
		}
		stats.Segments += st.Segments
		stats.Replayed += st.Replayed
		stats.SkippedRedoOptional += st.SkippedRedoOptional
		stats.TornBytes += st.TornBytes
	}
	stats.WallNs = time.Since(start).Nanoseconds()
	return assemble(cfg, evenBounds(n), as), stats, nil
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
