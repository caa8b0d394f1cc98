package btree

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ahi/internal/core"
)

// churnTree bulk-loads n Succinct pairs (keys i*7, vals i*7+1) for tests
// that migrate leaves under concurrent readers.
func churnTree(tb testing.TB, n int) (*Tree, []uint64, []uint64) {
	tb.Helper()
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 7
		vals[i] = uint64(i)*7 + 1
	}
	return BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals), keys, vals
}

// TestDisplacedImageOutlivesMigration pins down who owns a leaf image a
// migration displaces: whoever still holds it. A reader keeps a Gapped
// image X of one leaf, with no protection beyond the pointer itself, while
// that leaf migrates away and 2*64+ other leaves go Packed->Gapped. X's
// pairs must not change.
//
// This is the interleaving an epoch reclaimer with a Gapped slab pool got
// wrong: reclaim scanned the reader slots before taking its list lock,
// and when that scan found no reader (any == false) it freed every entry
// on the list, including an image a second migrator retired after the
// scan while a reader that pinned after the scan still held it. The next
// allocGapped then handed the image's arrays to a re-encode, which
// overwrote them under the reader. A reader holding X unpinned is that
// late reader as the reclaimer sees it; the Packed->Gapped migrations
// supply the retirements that trigger reclamation and the fresh Gapped
// allocations that reuse slabs.
func TestDisplacedImageOutlivesMigration(t *testing.T) {
	const reclaimBatch = 64 // the reclaimer's retire-list threshold
	n := (2*reclaimBatch + 8) * LeafCap
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 5
		vals[i] = uint64(i)*5 + 3
	}
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:            Config{DefaultEncoding: EncPacked},
		AsyncMigrations: true,
	}, keys, vals)
	defer a.Close()
	tr := a.Tree
	var leaves []*Leaf
	tr.WalkLeaves(func(l *Leaf) bool {
		leaves = append(leaves, l)
		return true
	})
	if len(leaves) <= 2*reclaimBatch {
		t.Fatalf("need > %d leaves, got %d", 2*reclaimBatch, len(leaves))
	}

	x := leaves[0]
	if !tr.MigrateLeaf(x, EncGapped) {
		t.Fatal("leaf did not expand to Gapped")
	}
	img := x.box.Load() // held the way a reader holds it
	wantK, wantV := img.p.appendAll(nil, nil)

	if !tr.MigrateLeaf(x, EncSuccinct) {
		t.Fatal("leaf did not migrate away from Gapped")
	}
	for _, l := range leaves[1:] {
		if !tr.MigrateLeaf(l, EncGapped) {
			t.Fatalf("leaf %d did not expand Packed->Gapped", l.ID())
		}
	}

	gotK, gotV := img.p.appendAll(nil, nil)
	if !slices.Equal(gotK, wantK) || !slices.Equal(gotV, wantV) {
		for i := range wantK {
			if i >= len(gotK) || gotK[i] != wantK[i] || gotV[i] != wantV[i] {
				t.Fatalf("held image changed after its leaf migrated away: pair %d was (%d,%d), now (%d,%d)",
					i, wantK[i], wantV[i], gotK[i], gotV[i])
			}
		}
		t.Fatalf("held image changed after its leaf migrated away: %d pairs, now %d", len(wantK), len(gotK))
	}
}

// TestMigrateLeafSingleReencode is the double re-encode regression test:
// concurrent MigrateLeaf calls for the same leaf and target must apply
// exactly one encoding swap — the losers observe the box change (or the
// already-reached target) and back off without re-encoding again.
func TestMigrateLeafSingleReencode(t *testing.T) {
	for round := 0; round < 50; round++ {
		tr, keys, _ := churnTree(t, 200)
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

// TestReadersVsMigrations hammers every read path (point, batch, scan,
// iterator) while two migrator goroutines cycle all leaves between
// encodings, so readers keep holding images that migrations displace.
// Run under -race: a reader touching memory a migration writes is a
// detectable data race, and any wrong value fails the assertions.
func TestReadersVsMigrations(t *testing.T) {
	const n = 5000
	tr, keys, vals := churnTree(t, n)
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
	if tr.Expansions() == 0 || tr.Compactions() == 0 {
		t.Fatal("no leaf changed encoding; the migrators did not churn")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
