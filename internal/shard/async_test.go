package shard

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ahi/internal/core"
)

func asyncConfig(shards int) Config {
	cfg := testConfig(shards, 1)
	cfg.Adaptive.AsyncMigrations = true
	cfg.Adaptive.InitialSkip = 2
	cfg.Adaptive.MinSkip = 2
	cfg.Adaptive.MaxSkip = 8
	cfg.Adaptive.RelativeBudget = 3.0
	return cfg
}

// TestSharedPoolReplacesInternalWorkers: the one manager's two workers
// apply every shard's migrations; skewed single-key traffic into shard
// 0's range re-encodes shard 0's leaves and no other shard's, and drain
// leaves no backlog behind.
func TestSharedPoolReplacesInternalWorkers(t *testing.T) {
	keys, vals := loadKeys(40_000)
	s := BulkLoad(asyncConfig(4), keys, vals)
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		s.Lookup(keys[rng.Intn(len(keys)/8)])
	}
	s.DrainMigrations()
	if s.MigrationBacklog() != 0 {
		t.Fatalf("backlog = %d after drain, want 0", s.MigrationBacklog())
	}
	if s.Shard(0).Tree.Expansions() == 0 {
		t.Fatal("the workers expanded none of the hot shard's leaves")
	}
	for i := 1; i < s.Shards(); i++ {
		if m := s.Shard(i).Tree.Expansions() + s.Shard(i).Tree.Compactions(); m != 0 {
			t.Fatalf("cold shard %d saw %d migrations; only shard 0 saw traffic", i, m)
		}
	}
}

// TestDisabledPoolKeepsInternalWorkers: traffic on both shards of a
// two-shard tree is migrated on both by the one manager's workers, and
// drain leaves no backlog.
func TestDisabledPoolKeepsInternalWorkers(t *testing.T) {
	keys, vals := loadKeys(10_000)
	s := BulkLoad(asyncConfig(2), keys, vals)
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	half := len(keys) / 2
	for i := 0; i < 100_000; i++ {
		s.Lookup(keys[(i%2)*half+rng.Intn(len(keys)/8)])
	}
	s.DrainMigrations()
	if s.MigrationBacklog() != 0 {
		t.Fatalf("backlog = %d after drain, want 0", s.MigrationBacklog())
	}
	for i := 0; i < s.Shards(); i++ {
		if s.Shard(i).Tree.Expansions() == 0 {
			t.Fatalf("the workers expanded none of shard %d's leaves", i)
		}
	}
}

// TestWorkStealingDrainsSkewedBacklog drives all adaptation churn into
// one shard from several callers. Nothing steals work any more: the
// manager's migration workers apply the re-encodings, DrainMigrations
// leaves no backlog behind, and Steals reads 0. Run under -race — the
// workers migrate leaves concurrently with the callers' readers.
func TestWorkStealingDrainsSkewedBacklog(t *testing.T) {
	keys, vals := loadKeys(60_000)
	s := BulkLoad(asyncConfig(4), keys, vals)
	defer s.Close()

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			bk := make([]uint64, 128)
			bv := make([]uint64, 128)
			bf := make([]bool, 128)
			hot := keys[:len(keys)/4] // shard 0's range only
			for i := 0; i < 400; i++ {
				for j := range bk {
					bk[j] = hot[rng.Intn(len(hot))]
				}
				s.LookupBatch(bk, bv, bf)
			}
		}(int64(g + 1))
	}
	wg.Wait()
	s.DrainMigrations()
	if s.MigrationBacklog() != 0 {
		t.Fatalf("backlog = %d after drain, want 0", s.MigrationBacklog())
	}
	if s.Shard(0).Tree.Expansions() == 0 {
		t.Fatal("hot shard saw no expansions; workload did not provoke migrations")
	}
	if n := s.Steals(); n != 0 {
		t.Fatalf("Steals = %d, want 0", n)
	}
}

// TestCloseDrainsEveryShard: Close with migrations pending on several
// shards must apply every queued one on every shard, neither deadlock nor
// leave a backlog. The traffic only expands leaves and never writes, so
// each queued migration succeeds. Repeated to shake out shutdown races.
func TestCloseDrainsEveryShard(t *testing.T) {
	for round := 0; round < 10; round++ {
		keys, vals := loadKeys(20_000)
		var queued atomic.Int64
		cfg := asyncConfig(2)
		cfg.Adaptive.MaxSampleSize = 256 // phases within this short run
		cfg.Adaptive.OnAdapt = func(ai core.AdaptInfo) { queued.Add(int64(ai.Queued)) }
		s := BulkLoad(cfg, keys, vals)
		rng := rand.New(rand.NewSource(int64(round)))
		half := len(keys) / 2
		for i := 0; i < 30_000; i++ {
			// A hot eighth at the start of each shard's range.
			s.Lookup(keys[(i%2)*half+rng.Intn(len(keys)/8)])
		}
		s.Close()
		if b := s.MigrationBacklog(); b != 0 {
			t.Fatalf("round %d: a backlog of %d after Close", round, b)
		}
		for i := 0; i < s.Shards(); i++ {
			if s.Shard(i).Tree.Expansions() == 0 {
				t.Fatalf("round %d: shard %d saw no expansions", round, i)
			}
		}
		if migrated := s.Shard(0).Mgr.Migrations(); migrated != queued.Load() {
			t.Fatalf("round %d: %d migrations applied of %d queued", round, migrated, queued.Load())
		}
	}
}
