package btree

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"ahi/internal/core"
)

func treeConfigs() map[string]Config {
	return map[string]Config{
		"gapped":   {DefaultEncoding: EncGapped},
		"packed":   {DefaultEncoding: EncPacked},
		"succinct": {DefaultEncoding: EncSuccinct},
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncGapped})
	if _, ok := tr.Lookup(7); ok {
		t.Fatal("empty tree found a key")
	}
	if tr.Len() != 0 {
		t.Fatal("empty tree Len != 0")
	}
	if n := tr.Scan(0, 10, func(k, v uint64) bool { return true }); n != 0 {
		t.Fatal("empty tree scanned something")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertLookupAllEncodings(t *testing.T) {
	for name, cfg := range treeConfigs() {
		t.Run(name, func(t *testing.T) {
			tr := New(cfg)
			rng := rand.New(rand.NewSource(42))
			ref := map[uint64]uint64{}
			for i := 0; i < 20000; i++ {
				k := uint64(rng.Intn(100000))
				v := rng.Uint64()
				wantNew := true
				if _, dup := ref[k]; dup {
					wantNew = false
				}
				if got := tr.Insert(k, v); got != wantNew {
					t.Fatalf("Insert(%d) new=%v want %v", k, got, wantNew)
				}
				ref[k] = v
			}
			if tr.Len() != len(ref) {
				t.Fatalf("Len=%d want %d", tr.Len(), len(ref))
			}
			for k, v := range ref {
				got, ok := tr.Lookup(k)
				if !ok || got != v {
					t.Fatalf("Lookup(%d)=(%d,%v) want %d", k, got, ok, v)
				}
			}
			if _, ok := tr.Lookup(1 << 60); ok {
				t.Fatal("phantom key")
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
			// Every leaf must still carry the configured encoding.
			s, p, g := tr.LeafCounts()
			switch cfg.DefaultEncoding {
			case EncSuccinct:
				if p != 0 || g != 0 {
					t.Fatalf("foreign encodings appeared: %d %d %d", s, p, g)
				}
			case EncPacked:
				if s != 0 || g != 0 {
					t.Fatalf("foreign encodings appeared: %d %d %d", s, p, g)
				}
			case EncGapped:
				if s != 0 || p != 0 {
					t.Fatalf("foreign encodings appeared: %d %d %d", s, p, g)
				}
			}
		})
	}
}

func TestBulkLoadAndLookup(t *testing.T) {
	for name, cfg := range treeConfigs() {
		t.Run(name, func(t *testing.T) {
			keys, vals := sortedPairs(50000, 7)
			tr := BulkLoad(cfg, keys, vals)
			if tr.Len() != len(keys) {
				t.Fatalf("Len=%d", tr.Len())
			}
			for i := 0; i < len(keys); i += 97 {
				v, ok := tr.Lookup(keys[i])
				if !ok || v != vals[i] {
					t.Fatalf("Lookup(%d) failed", keys[i])
				}
			}
			if err := tr.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBulkLoadOccupancy(t *testing.T) {
	keys, vals := sortedPairs(10000, 8)
	tr := BulkLoad(Config{DefaultEncoding: EncGapped, Occupancy: 0.5}, keys, vals)
	_, _, g := tr.LeafCounts()
	wantLeaves := (10000 + LeafCap/2 - 1) / (LeafCap / 2)
	if int(g) != wantLeaves {
		t.Fatalf("leaves=%d want %d", g, wantLeaves)
	}
}

func TestScan(t *testing.T) {
	keys, vals := sortedPairs(30000, 9)
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	// Scan from an existing key.
	start := 12345
	var got []uint64
	n := tr.Scan(keys[start], 100, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	if n != 100 || len(got) != 100 {
		t.Fatalf("scan visited %d", n)
	}
	for i := 0; i < 100; i++ {
		if got[i] != keys[start+i] {
			t.Fatalf("scan[%d]=%d want %d", i, got[i], keys[start+i])
		}
	}
	// Scan from a non-existing key lands on the successor.
	n = tr.Scan(keys[start]+1, 1, func(k, v uint64) bool {
		if k != keys[start+1] {
			t.Fatalf("successor scan got %d want %d", k, keys[start+1])
		}
		return true
	})
	if n != 1 {
		t.Fatal("successor scan empty")
	}
	// Early stop.
	count := 0
	tr.Scan(keys[0], 1000, func(k, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
	// Scan past the end.
	n = tr.Scan(keys[len(keys)-1]+1, 10, func(k, v uint64) bool { return true })
	if n != 0 {
		t.Fatalf("scan past end visited %d", n)
	}
}

func TestDelete(t *testing.T) {
	keys, vals := sortedPairs(5000, 10)
	tr := BulkLoad(Config{DefaultEncoding: EncGapped}, keys, vals)
	for i := 0; i < len(keys); i += 2 {
		if !tr.Delete(keys[i]) {
			t.Fatalf("Delete(%d) failed", keys[i])
		}
	}
	if tr.Delete(keys[0]) {
		t.Fatal("double delete succeeded")
	}
	if tr.Len() != 2500 {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i, k := range keys {
		_, ok := tr.Lookup(k)
		if (i%2 == 0) == ok {
			t.Fatalf("Lookup(%d) after delete = %v", k, ok)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOverwrite(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncPacked})
	tr.Insert(5, 1)
	if tr.Insert(5, 2) {
		t.Fatal("overwrite reported as new")
	}
	if v, _ := tr.Lookup(5); v != 2 {
		t.Fatalf("v=%d", v)
	}
	if tr.Len() != 1 {
		t.Fatal("Len grew on overwrite")
	}
}

func TestSequentialInsertGrowsTree(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncGapped})
	const n = 100000
	for i := uint64(0); i < n; i++ {
		tr.Insert(i, i*2)
	}
	if tr.Len() != n {
		t.Fatalf("Len=%d", tr.Len())
	}
	for i := uint64(0); i < n; i += 111 {
		if v, ok := tr.Lookup(i); !ok || v != i*2 {
			t.Fatalf("Lookup(%d)", i)
		}
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReverseInsert(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncGapped})
	for i := 50000; i > 0; i-- {
		tr.Insert(uint64(i), uint64(i))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n := tr.Scan(0, 10, func(k, v uint64) bool { return true })
	if n != 10 {
		t.Fatal("scan after reverse insert")
	}
}

func TestMigrateLeafAccounting(t *testing.T) {
	keys, vals := sortedPairs(10000, 11)
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	before := tr.Bytes()
	// Migrate every leaf to gapped and back.
	var leaves []*Leaf
	node := tr.root.Load()
	for {
		b := node.box.Load()
		if b.leafLevel() {
			leaf := b.children[0].leaf
			for leaf != nil {
				leaves = append(leaves, leaf)
				leaf = leaf.box.Load().next
			}
			break
		}
		node = b.children[0].inner
	}
	for _, l := range leaves {
		if !tr.MigrateLeaf(l, EncGapped) {
			t.Fatal("migration failed")
		}
		if tr.MigrateLeaf(l, EncGapped) {
			t.Fatal("no-op migration reported success")
		}
	}
	mid := tr.Bytes()
	if mid <= before {
		t.Fatalf("expansion did not grow the tree: %d -> %d", before, mid)
	}
	s, p, g := tr.LeafCounts()
	if s != 0 || p != 0 || int(g) != len(leaves) {
		t.Fatalf("counts after expansion: %d %d %d", s, p, g)
	}
	for _, l := range leaves {
		tr.MigrateLeaf(l, EncSuccinct)
	}
	after := tr.Bytes()
	if after != before {
		t.Fatalf("round-trip migration changed size: %d -> %d", before, after)
	}
	if tr.Expansions() != int64(len(leaves)) || tr.Compactions() != int64(len(leaves)) {
		t.Fatalf("migration counters: %d %d", tr.Expansions(), tr.Compactions())
	}
	// Data intact.
	for i := 0; i < len(keys); i += 501 {
		if v, ok := tr.Lookup(keys[i]); !ok || v != vals[i] {
			t.Fatalf("data lost at %d", keys[i])
		}
	}
}

func TestExpandOnInsert(t *testing.T) {
	keys, vals := sortedPairs(10000, 12)
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true}, keys, vals)
	s0, _, g0 := tr.LeafCounts()
	if g0 != 0 {
		t.Fatal("bulk load should start succinct")
	}
	// Insert into some leaf: that leaf must become gapped.
	tr.Insert(keys[500]+1, 1)
	s1, _, g1 := tr.LeafCounts()
	if g1 != 1 || s1 != s0-1 {
		t.Fatalf("eager expansion missing: succ %d->%d gapped %d->%d", s0, s1, g0, g1)
	}
	if tr.Expansions() == 0 {
		t.Fatal("expansion not counted")
	}
}

// TestSplitPublishesSeparatorWithoutPath: a writer whose recorded path
// lacks the parent level — the root grew under it — publishes its split's
// separator through a fresh descent (insertSeparatorFromRoot). An empty
// path on a two-level tree is that situation without the race.
func TestSplitPublishesSeparatorWithoutPath(t *testing.T) {
	n := LeafCap * (innerCap + 8) // the second leaf-level node has room
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 2
	}
	tr := BulkLoad(Config{DefaultEncoding: EncGapped, Occupancy: 1}, keys, keys)
	if d := tr.root.Load().box.Load().depth; d != 2 {
		t.Fatalf("root depth %d, want 2", d)
	}
	inners := tr.innerCount.Load()
	k := keys[n-2*LeafCap] + 1
	leaf, b := tr.lockLeaf(k, nil, nil)
	var path descentPath
	if inserted, _ := tr.putLocked(leaf, b, &path, k, k); !inserted {
		t.Fatalf("key %d not inserted", k)
	}
	right := leaf.box.Load().next
	if right == b.next {
		t.Fatal("a full leaf did not split")
	}
	if got, _ := tr.descend(right.box.Load().p.keyAt(0), nil, nil); got != right {
		t.Fatalf("descent reaches leaf %d, want the new right leaf %d: separator not in the parent", got.ID(), right.ID())
	}
	if got := tr.innerCount.Load(); got != inners {
		t.Fatalf("inner nodes %d -> %d: the separator grew a root instead", inners, got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, q := range append(keys, k) {
		if v, ok := tr.Lookup(q); !ok || v != q {
			t.Fatalf("Lookup(%d) = (%d,%v)", q, v, ok)
		}
	}
}

func TestConcurrentInsertLookup(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncGapped})
	const workers = 8
	const perWorker = 30000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				k := uint64(w)<<32 | uint64(i)
				tr.Insert(k, k+1)
				if i%5 == 0 {
					probe := uint64(w)<<32 | uint64(rng.Intn(i+1))
					if v, ok := tr.Lookup(probe); !ok || v != probe+1 {
						t.Errorf("worker %d: Lookup(%d) = (%d,%v)", w, probe, v, ok)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if tr.Len() != workers*perWorker {
		t.Fatalf("Len=%d want %d", tr.Len(), workers*perWorker)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWithMigrations(t *testing.T) {
	keys, vals := sortedPairs(50000, 13)
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	var leaves []*Leaf
	{
		node := tr.root.Load()
		for {
			b := node.box.Load()
			if b.leafLevel() {
				leaf := b.children[0].leaf
				for leaf != nil {
					leaves = append(leaves, leaf)
					leaf = leaf.box.Load().next
				}
				break
			}
			node = b.children[0].inner
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	migratorDone := make(chan struct{})
	// Migrator goroutine flips encodings continuously until the workers
	// finish (it must not join the workers' WaitGroup, which gates stop).
	go func() {
		defer close(migratorDone)
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			l := leaves[rng.Intn(len(leaves))]
			tr.MigrateLeaf(l, core.Encoding(rng.Intn(3)))
		}
	}()
	// Readers and writers.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < 20000; i++ {
				j := rng.Intn(len(keys))
				if v, ok := tr.Lookup(keys[j]); !ok || v != vals[j] {
					// Value may have been overwritten by writer below;
					// writers use vals[j] so any success value matches.
					t.Errorf("lost key %d", keys[j])
					return
				}
				if i%10 == 0 {
					tr.Insert(keys[j], vals[j])
				}
				if i%17 == 0 {
					tr.Scan(keys[j], 20, func(k, v uint64) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-migratorDone
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestScanAcrossSplits(t *testing.T) {
	// Scans running while inserts split leaves must stay ordered.
	tr := New(Config{DefaultEncoding: EncGapped})
	for i := uint64(0); i < 10000; i += 2 {
		tr.Insert(i, i)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(1); i < 10000; i += 2 {
			tr.Insert(i, i)
		}
	}()
	go func() {
		defer wg.Done()
		for r := 0; r < 200; r++ {
			var prev uint64
			first := true
			tr.Scan(0, 500, func(k, v uint64) bool {
				if !first && k <= prev {
					t.Errorf("scan order violated: %d after %d", k, prev)
					return false
				}
				prev, first = k, false
				return true
			})
		}
	}()
	wg.Wait()
}

func TestTreeBytesTracksReality(t *testing.T) {
	keys, vals := sortedPairs(20000, 14)
	for name, cfg := range treeConfigs() {
		tr := BulkLoad(cfg, keys, vals)
		sb, pb, gb := tr.LeafBytes()
		total := tr.Bytes()
		if total <= 0 || sb+pb+gb > total {
			t.Fatalf("%s: inconsistent byte accounting %d %d %d vs %d", name, sb, pb, gb, total)
		}
	}
	// Succinct tree must be substantially smaller than gapped.
	ts := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	tg := BulkLoad(Config{DefaultEncoding: EncGapped}, keys, vals)
	if float64(ts.Bytes()) > 0.7*float64(tg.Bytes()) {
		t.Fatalf("succinct tree not compact: %d vs %d", ts.Bytes(), tg.Bytes())
	}
}

func TestValidateDetectsExpectedLayout(t *testing.T) {
	keys, vals := sortedPairs(100000, 15)
	tr := BulkLoad(Config{DefaultEncoding: EncPacked}, keys, vals)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot-check ordering via full scan.
	var prev uint64
	first := true
	n := tr.Scan(0, len(keys)+10, func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("order violated")
		}
		prev, first = k, false
		return true
	})
	if n != len(keys) {
		t.Fatalf("scan visited %d of %d", n, len(keys))
	}
}

func TestRandomizedAgainstModel(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncGapped})
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(77))
	for op := 0; op < 100000; op++ {
		k := uint64(rng.Intn(30000))
		switch rng.Intn(5) {
		case 0, 1, 2:
			v := rng.Uint64()
			tr.Insert(k, v)
			ref[k] = v
		case 3:
			got := tr.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d)=%v want %v", op, k, got, want)
			}
			delete(ref, k)
		case 4:
			got, ok := tr.Lookup(k)
			want, wok := ref[k]
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: Lookup(%d)=(%d,%v) want (%d,%v)", op, k, got, ok, want, wok)
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len=%d want %d", tr.Len(), len(ref))
	}
	// Full-order check against the sorted reference.
	var wantKeys []uint64
	for k := range ref {
		wantKeys = append(wantKeys, k)
	}
	sort.Slice(wantKeys, func(i, j int) bool { return wantKeys[i] < wantKeys[j] })
	i := 0
	tr.Scan(0, len(ref)+1, func(k, v uint64) bool {
		if k != wantKeys[i] || v != ref[k] {
			t.Fatalf("scan mismatch at %d", i)
		}
		i++
		return true
	})
	if i != len(wantKeys) {
		t.Fatalf("scan visited %d of %d", i, len(wantKeys))
	}
}
