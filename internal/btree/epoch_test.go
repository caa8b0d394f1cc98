package btree

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ahi/internal/core"
)

// epochTree builds a bulk-loaded tree with epoch reclamation enabled,
// exactly as wireAdaptive does for async-migration trees.
func epochTree(tb testing.TB, n int) (*Tree, []uint64, []uint64) {
	tb.Helper()
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 7
		vals[i] = uint64(i)*7 + 1
	}
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	tr.epochs = newEpochs()
	return tr, keys, vals
}

func TestEpochPinUnpinStamps(t *testing.T) {
	e := newEpochs()
	s1 := e.pin(nil)
	if s1 == nil || s1.v.Load() != 1 { // epoch 0 stamped as 0<<1|1
		t.Fatalf("pin stamped %v, want 1", s1)
	}
	s2 := e.pin(nil)
	if s2 == s1 {
		t.Fatal("two concurrent pins share a slot")
	}
	e.unpin(s1)
	if s1.v.Load() != 0 {
		t.Fatal("unpin did not free the slot")
	}
	e.unpin(s2)
	// Nil receiver (reclamation disabled) must be a no-op end to end.
	var nilE *epochs
	nilE.unpin(nilE.pin(nil))
	nilE.retire(&leafBox{})
}

func TestEpochReclaimBlockedByActiveReader(t *testing.T) {
	e := newEpochs()
	slot := e.pin(nil) // reader enters before any retirement
	boxes := make([]*leafBox, 0, reclaimThreshold)
	for i := 0; i < reclaimThreshold; i++ {
		b := &leafBox{p: newGapped(nil, nil)}
		boxes = append(boxes, b)
		e.retire(b) // threshold-th retire triggers a reclaim attempt
	}
	if got := e.reclaimedTotal.Load(); got != 0 {
		t.Fatalf("reclaimed %d images while a pre-retirement reader is pinned", got)
	}
	depth, lag := e.stats()
	if depth != reclaimThreshold {
		t.Fatalf("retire depth = %d, want %d", depth, reclaimThreshold)
	}
	if lag != int64(reclaimThreshold) {
		t.Fatalf("epoch lag = %d, want %d", lag, reclaimThreshold)
	}
	e.unpin(slot)
	e.reclaim()
	if got := e.reclaimedTotal.Load(); got != int64(len(boxes)) {
		t.Fatalf("reclaimed %d images after reader exit, want %d", got, len(boxes))
	}
	if depth, _ := e.stats(); depth != 0 {
		t.Fatalf("retire depth = %d after full reclaim, want 0", depth)
	}
	if e.recycledTotal.Load() == 0 {
		t.Fatal("full-size gapped images must recycle into the slab pool")
	}
}

func TestEpochLateReaderDoesNotBlockOlderGarbage(t *testing.T) {
	e := newEpochs()
	for i := 0; i < 8; i++ {
		e.retire(&leafBox{p: newGapped(nil, nil)})
	}
	// This reader pinned after all 8 retirements: its stamp is >= every
	// retired epoch, so it cannot reach any of those images.
	slot := e.pin(nil)
	e.reclaim()
	if got := e.reclaimedTotal.Load(); got != 8 {
		t.Fatalf("reclaimed %d, want 8 (late reader must not block old garbage)", got)
	}
	e.unpin(slot)
}

// TestMigrateLeafSingleReencode is the double re-encode regression test:
// concurrent MigrateLeaf calls for the same leaf and target must apply
// exactly one encoding swap — the losers observe the box change (or the
// already-reached target) and back off without re-encoding again.
func TestMigrateLeafSingleReencode(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr, keys, _ := epochTree(t, 200)
		_, leaf, _ := tr.lookupLeaf(keys[0], nil)
		var applied atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if tr.MigrateLeaf(leaf, EncGapped) {
					applied.Add(1)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got := applied.Load(); got != 1 {
			t.Fatalf("round %d: %d MigrateLeaf calls applied, want exactly 1", round, got)
		}
		if got := tr.Expansions(); got != 1 {
			t.Fatalf("round %d: expansions counter = %d, want 1", round, got)
		}
		if enc := leaf.Encoding(); enc != EncGapped {
			t.Fatalf("round %d: leaf encoding = %v, want gapped", round, enc)
		}
	}
}

// TestEpochReadersVsMigrations hammers every read path (point, batch,
// scan, iterator) while two migrator goroutines cycle all leaves between
// encodings, forcing constant retire/reclaim/recycle traffic through the
// slab pool. Run under -race: a reader touching a recycled payload is a
// detectable data race, and any wrong value fails the assertions.
func TestEpochReadersVsMigrations(t *testing.T) {
	const n = 5000
	tr, keys, vals := epochTree(t, n)
	want := make(map[uint64]uint64, n)
	for i, k := range keys {
		want[k] = vals[i]
	}
	stop := make(chan struct{})
	var migrators, readersWG sync.WaitGroup

	// Migrators: walk the leaves and rotate each through all encodings.
	targets := []core.Encoding{EncGapped, EncPacked, EncSuccinct}
	for g := 0; g < 2; g++ {
		migrators.Add(1)
		go func(g int) {
			defer migrators.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tgt := targets[(i+g)%len(targets)]
				tr.WalkLeaves(func(l *Leaf) bool {
					tr.MigrateLeaf(l, tgt)
					return true
				})
			}
		}(g)
	}

	readers := 4
	errs := make(chan string, readers)
	for g := 0; g < readers; g++ {
		readersWG.Add(1)
		go func(seed int64) {
			defer readersWG.Done()
			rng := rand.New(rand.NewSource(seed))
			bk := make([]uint64, 64)
			bv := make([]uint64, 64)
			bf := make([]bool, 64)
			for iter := 0; iter < 300; iter++ {
				switch iter % 4 {
				case 0: // point lookups
					for j := 0; j < 64; j++ {
						k := keys[rng.Intn(n)]
						v, ok := tr.Lookup(k)
						if !ok || v != want[k] {
							errs <- "point lookup corrupted under migration"
							return
						}
					}
				case 1: // batch lookups
					for j := range bk {
						bk[j] = keys[rng.Intn(n)]
					}
					tr.LookupBatch(bk, bv, bf)
					for j := range bk {
						if !bf[j] || bv[j] != want[bk[j]] {
							errs <- "batch lookup corrupted under migration"
							return
						}
					}
				case 2: // bounded scans
					from := keys[rng.Intn(n)]
					prev := uint64(0)
					first := true
					tr.Scan(from, 128, func(k, v uint64) bool {
						if (!first && k <= prev) || v != want[k] {
							errs <- "scan corrupted under migration"
							return false
						}
						prev, first = k, false
						return true
					})
				case 3: // iterator
					it := tr.NewIterator()
					cnt := 0
					for ok := it.Seek(keys[rng.Intn(n)]); ok && cnt < 128; ok = it.Next() {
						if want[it.Key()] != it.Value() {
							errs <- "iterator corrupted under migration"
							return
						}
						cnt++
					}
				}
			}
		}(int64(g + 1))
	}

	// Readers finish on their own; migrators run until told to stop.
	readersWG.Wait()
	close(stop)
	migrators.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	if tr.epochs.retiredTotal.Load() == 0 {
		t.Fatal("no images were retired; migration churn did not exercise reclamation")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
