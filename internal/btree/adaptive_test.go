package btree

import (
	"math/rand"
	"sync"
	"testing"

	"ahi/internal/core"
	"ahi/internal/workload"
)

// adaptiveFixture bulk-loads an adaptive tree; extraLeaves > 0 grants an
// absolute budget of the compact baseline plus that many full Gapped
// leaves (0 = unbounded).
func adaptiveFixture(n int, extraLeaves int, seed int64) (*Adaptive, []uint64, []uint64) {
	keys, vals := sortedPairs(n, seed)
	cfg := AdaptiveConfig{
		Tree:        Config{DefaultEncoding: EncSuccinct},
		InitialSkip: 4, MinSkip: 2, MaxSkip: 64,
	}
	if extraLeaves > 0 {
		base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
		cfg.MemoryBudget = base.Bytes() + int64(extraLeaves)*(LeafCap*16+leafHeaderBytes)
	}
	a := BulkLoadAdaptive(cfg, keys, vals)
	return a, keys, vals
}

func TestAdaptiveExpandsHotLeaves(t *testing.T) {
	a, keys, vals := adaptiveFixture(100000, 150, 1)
	s := a.NewSession()
	z := workload.NewZipf(len(keys), 1.2, 3)
	for i := 0; i < 3_000_000; i++ {
		j := z.Draw()
		v, ok := s.Lookup(keys[j])
		if !ok || v != vals[j] {
			t.Fatalf("lookup lost key %d", keys[j])
		}
	}
	if a.Mgr.Adaptations() == 0 {
		t.Fatal("no adaptation phases ran")
	}
	if a.Mgr.Migrations() == 0 {
		t.Fatal("no migrations")
	}
	sc, pc, gc := a.Tree.LeafCounts()
	if gc == 0 {
		t.Fatal("no leaves were expanded")
	}
	if sc == 0 {
		t.Fatal("cold leaves should remain succinct")
	}
	t.Logf("leaves: succinct=%d packed=%d gapped=%d", sc, pc, gc)
	// The hottest key's leaf must be gapped.
	_, leaf, _ := a.Tree.lookupLeaf(keys[0], nil)
	if leaf.Encoding() != EncGapped {
		t.Fatalf("hottest leaf encoding = %s", EncodingName(leaf.Encoding()))
	}
	if err := a.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveRespectsBudget(t *testing.T) {
	a, keys, _ := adaptiveFixture(50000, 60, 2)
	configured := a.Tree.Bytes() + 60*(LeafCap*16+leafHeaderBytes)
	s := a.NewSession()
	z := workload.NewZipf(len(keys), 1.0, 5)
	for i := 0; i < 2_000_000; i++ {
		s.Lookup(keys[z.Draw()])
	}
	// One leaf of slack on top of the configured absolute budget.
	if used := a.Tree.Bytes(); used > configured+LeafCap*16 {
		t.Fatalf("size %d exceeds budget %d", used, configured)
	}
	if _, _, g := a.Tree.LeafCounts(); g == 0 {
		t.Fatal("budget so tight nothing expanded")
	}
}

func TestAdaptivePhaseShiftCompacts(t *testing.T) {
	a, keys, _ := adaptiveFixture(80000, 100, 3)
	s := a.NewSession()
	// Phase 1: hammer the first 2% of keys.
	hot := len(keys) / 50
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 2_000_000; i++ {
		s.Lookup(keys[rng.Intn(hot)])
	}
	_, leafA, _ := a.Tree.lookupLeaf(keys[0], nil)
	if leafA.Encoding() == EncSuccinct {
		t.Fatal("phase-1 hot leaf not expanded")
	}
	gAfter1 := func() int64 { _, _, g := a.Tree.LeafCounts(); return g }()
	// Phase 2: hammer the last 2%.
	lo := len(keys) - hot
	for i := 0; i < 6_000_000; i++ {
		s.Lookup(keys[lo+rng.Intn(hot)])
	}
	_, leafB, _ := a.Tree.lookupLeaf(keys[len(keys)-1], nil)
	if leafB.Encoding() != EncGapped {
		t.Fatal("phase-2 hot leaf not expanded")
	}
	_, leafA, _ = a.Tree.lookupLeaf(keys[0], nil)
	if leafA.Encoding() == EncGapped {
		t.Fatal("stale hot leaf never compacted")
	}
	if a.Tree.Compactions() == 0 {
		t.Fatal("no compactions after phase shift")
	}
	gAfter2 := func() int64 { _, _, g := a.Tree.LeafCounts(); return g }()
	if gAfter2 > gAfter1*2 {
		t.Fatalf("gapped leaves kept accumulating: %d -> %d", gAfter1, gAfter2)
	}
}

func TestAdaptiveInsertEagerExpansion(t *testing.T) {
	a, keys, _ := adaptiveFixture(30000, 0, 4)
	s := a.NewSession()
	newKey := keys[100] + 1
	s.Insert(newKey, 42)
	if v, ok := s.Lookup(newKey); !ok || v != 42 {
		t.Fatal("insert lost")
	}
	_, leaf, _ := a.Tree.lookupLeaf(newKey, nil)
	if leaf.Encoding() != EncGapped {
		t.Fatalf("write target not eagerly expanded: %s", EncodingName(leaf.Encoding()))
	}
}

func TestAdaptiveScanTracking(t *testing.T) {
	a, keys, _ := adaptiveFixture(50000, 100, 5)
	s := a.NewSession()
	// Scan-only workload over a narrow hot range must still trigger
	// expansions (scans track every visited leaf).
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300_000; i++ {
		j := rng.Intn(500)
		s.Scan(keys[j], 25, func(k, v uint64) bool { return true })
	}
	if a.Mgr.Migrations() == 0 {
		t.Fatal("scan tracking produced no migrations")
	}
	_, leaf, _ := a.Tree.lookupLeaf(keys[10], nil)
	if leaf.Encoding() == EncSuccinct {
		t.Fatal("scan-hot leaf not expanded")
	}
}

func TestAdaptiveDeleteTracked(t *testing.T) {
	a, keys, _ := adaptiveFixture(10000, 0, 6)
	s := a.NewSession()
	if !s.Delete(keys[5]) {
		t.Fatal("delete failed")
	}
	if _, ok := s.Lookup(keys[5]); ok {
		t.Fatal("key survived delete")
	}
}

func TestTrainedHybridIndex(t *testing.T) {
	a, keys, _ := adaptiveFixture(60000, 40, 7)
	// Predicted workload: the first 5% of keys dominate.
	freqs := map[uint64]uint64{}
	for i := 0; i < len(keys)/20; i++ {
		freqs[keys[i]] = uint64(len(keys)/20 - i)
	}
	for i := len(keys) / 20; i < len(keys)/10; i++ {
		freqs[keys[i]] = 1
	}
	migs := a.Train(freqs)
	if migs == 0 {
		t.Fatal("training migrated nothing")
	}
	_, hotLeaf, _ := a.Tree.lookupLeaf(keys[0], nil)
	if hotLeaf.Encoding() != EncGapped {
		t.Fatal("trained hot leaf not expanded")
	}
	_, coldLeaf, _ := a.Tree.lookupLeaf(keys[len(keys)-1], nil)
	if coldLeaf.Encoding() != EncSuccinct {
		t.Fatal("cold leaf touched by training")
	}
}

func TestAdaptiveConcurrentGSAndTLS(t *testing.T) {
	for _, mode := range []core.ConcurrencyMode{core.GS, core.TLS} {
		name := "GS"
		if mode == core.TLS {
			name = "TLS"
		}
		t.Run(name, func(t *testing.T) {
			keys, vals := sortedPairs(60000, 8)
			cfg := AdaptiveConfig{
				Tree:        Config{DefaultEncoding: EncSuccinct},
				InitialSkip: 4, MinSkip: 2, MaxSkip: 64,
				Mode: mode,
			}
			a := BulkLoadAdaptive(cfg, keys, vals)
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					s := a.NewSession()
					defer s.Flush()
					z := workload.NewZipf(len(keys), 1.2, int64(w+1))
					for i := 0; i < 400_000; i++ {
						j := z.Draw()
						if v, ok := s.Lookup(keys[j]); !ok || v != vals[j] {
							t.Errorf("lost key %d", keys[j])
							return
						}
						if i%50 == 0 {
							s.Insert(keys[j]+1, 1)
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if a.Mgr.Adaptations() == 0 {
				t.Fatal("no adaptations")
			}
			_, _, gc := a.Tree.LeafCounts()
			if gc == 0 {
				t.Fatal("no expansions under concurrency")
			}
			if err := a.Tree.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAdaptiveManagerBytesSmall(t *testing.T) {
	a, keys, _ := adaptiveFixture(100000, 150, 9)
	s := a.NewSession()
	z := workload.NewZipf(len(keys), 1.0, 1)
	for i := 0; i < 1_000_000; i++ {
		s.Lookup(keys[z.Draw()])
	}
	// The paper reports the framework at ~0.1% of the index size; allow
	// up to 5% at our much smaller scale.
	if fb, ib := a.Mgr.Bytes(), a.Tree.Bytes(); fb > ib/20 {
		t.Fatalf("sampling framework too heavy: %d vs index %d", fb, ib)
	}
}
