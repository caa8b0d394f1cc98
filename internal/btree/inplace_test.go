package btree

import (
	"runtime"
	"sync/atomic"
	"testing"

	"ahi/internal/core"
)

// Tests of the in-place overwrite: a write to an existing key of a Gapped
// or Packed leaf stores the value word into the published image under the
// leaf's lock, and MigrateLeaf tells a racing store by the lock version.

// TestOverwriteRacingMigration overwrites every key of one leaf with
// increasing values while another goroutine migrates that leaf
// Gapped -> Packed -> Succinct -> Gapped in a loop. Once both stop, every
// key must read its last written value. A migration that validated its
// snapshot by box identity would publish a re-encode that missed an
// in-place store, and the store would be lost; each trial ends on a round
// of writes, so a lost final write is visible.
func TestOverwriteRacingMigration(t *testing.T) {
	const trials, rounds = 20, 10
	keys, vals := sortedPairs(LeafCap*3/4, 36)
	targets := []core.Encoding{EncPacked, EncSuccinct, EncGapped}
	for trial := 0; trial < trials; trial++ {
		tr := BulkLoad(Config{DefaultEncoding: EncGapped, Occupancy: 1}, keys, vals)
		_, leaf, _ := tr.lookupLeaf(keys[0], nil)
		var migrated atomic.Int64
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if tr.MigrateLeaf(leaf, targets[i%len(targets)]) {
					migrated.Add(1)
				}
			}
		}()
		// Each round of writes races the migrator; between rounds the
		// writer yields until one migration has gone through, so the
		// migrator is not starved by a version that never stands still.
		for r := uint64(1); r <= rounds; r++ {
			for i, k := range keys {
				tr.Insert(k, r<<32|uint64(i))
			}
			for m := migrated.Load(); migrated.Load() == m; {
				runtime.Gosched()
			}
		}
		close(stop)
		<-done
		for i, k := range keys {
			if v, ok := tr.Lookup(k); !ok || v != rounds<<32|uint64(i) {
				t.Fatalf("trial %d (%d migrations): key %d reads (%#x,%v), want %#x: an overwrite was lost",
					trial, migrated.Load(), k, v, ok, rounds<<32|uint64(i))
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestOverwriteZeroAlloc: an overwrite of a Gapped or Packed leaf through
// the session allocates nothing, one key at a time or as an
// all-overwrite batch, also when the result cache holds the keys and each
// single-key overwrite updates its held way.
func TestOverwriteZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	keys, vals := sortedPairs(20000, 37)
	for _, enc := range []core.Encoding{EncGapped, EncPacked} {
		for _, cached := range []bool{false, true} {
			name := EncodingName(enc)
			cfg := AdaptiveConfig{
				Tree:        Config{DefaultEncoding: enc, ExpandOnInsert: true},
				InitialSkip: 1 << 30,
				FixedSkip:   true,
			}
			if cached {
				// 2 MB of cache: room for every key.
				name += "-cached"
				cfg.MemoryBudget, cfg.CacheFraction = 16<<20, 0.125
			}
			t.Run(name, func(t *testing.T) { overwriteZeroAlloc(t, cfg, keys, vals) })
		}
	}
}

func overwriteZeroAlloc(t *testing.T, cfg AdaptiveConfig, keys, vals []uint64) {
	a := BulkLoadAdaptive(cfg, keys, vals)
	defer a.Close()
	s := a.NewSession()
	cached := a.Tree.rcache != nil
	if cached {
		for _, k := range keys {
			s.Lookup(k)
		}
		if n := a.Tree.rcache.Len(); n < len(keys)*9/10 {
			t.Fatalf("the cache holds %d of %d keys", n, len(keys))
		}
	}
	before := a.CacheStats().Updated
	i := 0
	if avg := testing.AllocsPerRun(500, func() {
		s.Insert(keys[(i*37)%len(keys)], uint64(i))
		i++
	}); avg != 0 {
		t.Errorf("Session.Insert overwrite allocates %.1f objects, want 0", avg)
	}
	if updated := a.CacheStats().Updated - before; cached && updated < int64(i)*9/10 {
		t.Errorf("%d of %d overwrites updated their cached way", updated, i)
	}

	// One batch: a run of 64 keys in one leaf and 64 keys spread
	// over many leaves, every one of them present.
	bk := make([]uint64, 128)
	bv := make([]uint64, 128)
	ins := make([]bool, 128)
	for j := range bk {
		if j < 64 {
			bk[j] = keys[100+j]
		} else {
			bk[j] = keys[(j*151)%len(keys)]
		}
	}
	s.InsertBatch(bk, bv, ins) // warm the batch scratch
	if avg := testing.AllocsPerRun(200, func() {
		for j := range bv {
			bv[j]++
		}
		s.InsertBatch(bk, bv, ins)
	}); avg != 0 {
		t.Errorf("InsertBatch of overwrites allocates %.1f objects, want 0", avg)
	}
	for j, k := range bk {
		if v, ok := s.Lookup(k); ins[j] || !ok || v != bv[j] {
			t.Fatalf("key %d reads (%d,%v) inserted=%v, want %d", k, v, ok, ins[j], bv[j])
		}
	}
	if got := a.Tree.Expansions(); got != 0 {
		t.Errorf("overwrites expanded %d leaves", got)
	}
}
