package btree

import (
	"math/rand"
	"sync"
	"testing"

	"ahi/internal/core"
	"ahi/internal/obs"
)

func batchConfigs() []Config {
	return []Config{
		{DefaultEncoding: EncGapped},
		{DefaultEncoding: EncPacked},
		{DefaultEncoding: EncSuccinct},
		{DefaultEncoding: EncSuccinct, ExpandOnInsert: true},
	}
}

// TestLookupBatchMatchesLookup cross-checks batch lookups (sorted runs,
// duplicates, misses) against per-key Lookup on every encoding.
func TestLookupBatchMatchesLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20_000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 7 // gaps so misses exist
		vals[i] = uint64(i)
	}
	for _, cfg := range batchConfigs() {
		tr := BulkLoad(cfg, keys, vals)
		for _, batch := range []int{1, 3, 8, 32, 128, 999} {
			q := make([]uint64, batch)
			got := make([]uint64, batch)
			gotOK := make([]bool, batch)
			for trial := 0; trial < 20; trial++ {
				for i := range q {
					switch trial % 3 {
					case 0:
						q[i] = uint64(rng.Intn(n*7 + 100)) // mixed hits/misses
					case 1:
						q[i] = keys[rng.Intn(100)] // heavy duplicates, one leaf
					default:
						q[i] = keys[rng.Intn(n)]
					}
				}
				tr.LookupBatch(q, got, gotOK)
				for i, k := range q {
					wv, wok := tr.Lookup(k)
					if gotOK[i] != wok || (wok && got[i] != wv) {
						t.Fatalf("enc=%v batch=%d: LookupBatch[%d]=(%d,%v) want (%d,%v) for key %d",
							cfg.DefaultEncoding, batch, i, got[i], gotOK[i], wv, wok, k)
					}
				}
			}
		}
	}
}

// TestInsertBatchMatchesInsert checks positional inserted flags, last-wins
// duplicate semantics, overwrite behaviour, splits mid-batch, and the
// structural invariants afterwards.
func TestInsertBatchMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, cfg := range batchConfigs() {
		tr := New(cfg)
		ref := make(map[uint64]uint64)
		for round := 0; round < 60; round++ {
			batch := 1 + rng.Intn(200)
			ks := make([]uint64, batch)
			vs := make([]uint64, batch)
			ins := make([]bool, batch)
			for i := range ks {
				ks[i] = uint64(rng.Intn(8000))
				vs[i] = rng.Uint64()
			}
			tr.InsertBatch(ks, vs, ins)
			// Replay against the reference map in batch-sorted submission
			// order (the documented semantics) to predict inserted flags.
			for i, k := range ks {
				_, existed := ref[k]
				// A key duplicated earlier in this batch exists by the time
				// the later copy lands.
				for j := 0; j < i; j++ {
					if ks[j] == k {
						existed = true
					}
				}
				if ins[i] == existed {
					t.Fatalf("enc=%v round=%d: inserted[%d]=%v for key %d (existed=%v)",
						cfg.DefaultEncoding, round, i, ins[i], k, existed)
				}
				ref[k] = vs[i]
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("enc=%v: invalid tree after batch inserts: %v", cfg.DefaultEncoding, err)
		}
		if tr.Len() != len(ref) {
			t.Fatalf("enc=%v: Len=%d want %d", cfg.DefaultEncoding, tr.Len(), len(ref))
		}
		for k, v := range ref {
			got, ok := tr.Lookup(k)
			if !ok || got != v {
				t.Fatalf("enc=%v: Lookup(%d)=(%d,%v) want (%d,true)", cfg.DefaultEncoding, k, got, ok, v)
			}
		}
	}
}

// TestInsertBatchLastWins pins the duplicate-key ordering contract.
func TestInsertBatchLastWins(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncGapped})
	ks := []uint64{5, 5, 5, 5, 5, 5, 5, 5}
	vs := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	ins := make([]bool, len(ks))
	tr.InsertBatch(ks, vs, ins)
	if !ins[0] {
		t.Fatal("first duplicate should report inserted")
	}
	for i := 1; i < len(ins); i++ {
		if ins[i] {
			t.Fatalf("duplicate %d should report overwrite", i)
		}
	}
	if v, ok := tr.Lookup(5); !ok || v != 8 {
		t.Fatalf("Lookup(5) = (%d,%v), want last value 8", v, ok)
	}
}

// TestInsertBatchOverwriteRunExpands pins the one place where InsertBatch
// and per-key Insert leave different encodings: a run of two or more keys
// on a Succinct leaf is merged into a new image, which ExpandOnInsert
// makes Gapped even when every key in the run already exists. Per-key
// overwrites keep the leaf Succinct.
func TestInsertBatchOverwriteRunExpands(t *testing.T) {
	keys := make([]uint64, 1000)
	vals := make([]uint64, 1000)
	for i := range keys {
		keys[i], vals[i] = uint64(i), uint64(i)
	}
	ks := []uint64{100, 110, 120, 130}
	vs := []uint64{1, 2, 3, 4}
	cfg := Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true}
	check := func(name string, tr *Tree, enc core.Encoding, expansions int64) {
		t.Helper()
		_, leaf, _ := tr.lookupLeaf(ks[0], nil)
		if got := leaf.Encoding(); got != enc {
			t.Errorf("%s: leaf is %v, want %v", name, got, enc)
		}
		if got := tr.Expansions(); got != expansions {
			t.Errorf("%s: Expansions() = %d, want %d", name, got, expansions)
		}
		for i, k := range ks {
			if v, ok := tr.Lookup(k); !ok || v != vs[i] {
				t.Errorf("%s: Lookup(%d) = (%d,%v), want (%d,true)", name, k, v, ok, vs[i])
			}
		}
	}

	single := BulkLoad(cfg, keys, vals)
	for i, k := range ks {
		if single.Insert(k, vs[i]) {
			t.Fatalf("Insert(%d) reported a new key", k)
		}
	}
	check("per-key Insert", single, EncSuccinct, 0)

	batch := BulkLoad(cfg, keys, vals)
	ins := make([]bool, len(ks))
	batch.InsertBatch(ks, vs, ins)
	for i, in := range ins {
		if in {
			t.Fatalf("InsertBatch reported key %d new", ks[i])
		}
	}
	check("InsertBatch", batch, EncGapped, 1)
}

// TestBatchConcurrent runs batched lookups and inserts against concurrent
// single-key writers; batched readers must never observe torn state.
func TestBatchConcurrent(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true})
	const span = 1 << 14
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			ks := make([]uint64, 64)
			vs := make([]uint64, 64)
			ins := make([]bool, 64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range ks {
					ks[i] = uint64(rng.Intn(span))
					vs[i] = ks[i] * 3 // value derived from key: torn reads detectable
				}
				tr.InsertBatch(ks, vs, ins)
			}
		}(int64(w))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		for {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(span))
			tr.Insert(k, k*3)
		}
	}()

	rng := rand.New(rand.NewSource(7))
	q := make([]uint64, 128)
	got := make([]uint64, 128)
	ok := make([]bool, 128)
	for round := 0; round < 300; round++ {
		for i := range q {
			q[i] = uint64(rng.Intn(span))
		}
		tr.LookupBatch(q, got, ok)
		for i := range q {
			if ok[i] && got[i] != q[i]*3 {
				t.Errorf("torn read: key %d -> %d", q[i], got[i])
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree after concurrent batches: %v", err)
	}
}

// TestSessionBatchTracksExpansions verifies the §5.2 contract through the
// batch write path: eagerly expanded leaves are tracked even when no key
// in the batch was sampled, so a later adaptation phase can compact them.
func TestSessionBatchTracksExpansions(t *testing.T) {
	a := NewAdaptive(AdaptiveConfig{
		Tree:         Config{DefaultEncoding: EncSuccinct},
		InitialSkip:  1 << 30, // effectively never sample: only expansions track
		FixedSkip:    true,
		DisableBloom: true, // the filter absorbs first sightings by design
	})
	s := a.NewSession()
	ks := make([]uint64, 256)
	vs := make([]uint64, 256)
	ins := make([]bool, 256)
	for i := range ks {
		ks[i] = uint64(i)
		vs[i] = uint64(i)
	}
	s.InsertBatch(ks, vs, ins)
	s.Flush()
	if got := a.Tree.Expansions(); got == 0 {
		t.Fatal("batch insert into succinct leaves should expand eagerly")
	}
	if got := a.Mgr.TrackedUnits(); got == 0 {
		t.Fatal("expanded leaves must be tracked for deferred compaction")
	}
	// Batch lookups through a session keep results identical.
	got := make([]uint64, 256)
	ok := make([]bool, 256)
	s.LookupBatch(ks, got, ok)
	for i := range ks {
		if !ok[i] || got[i] != vs[i] {
			t.Fatalf("session LookupBatch[%d] = (%d,%v) want (%d,true)", i, got[i], ok[i], vs[i])
		}
	}
}

// TestBatchTracksLikeSingleOps: a batch's tracking callbacks find a key's
// sample decision by its batch offset. A 65 536-key batch of random keys
// at a small skip must hand the sampler exactly the accesses the same keys
// make one by one — same count, same units (the tree has about half as
// many leaves as the batch has samples, so a key tracked in place of
// another shows as a different unit count). The writes are overwrites
// without eager expansion, so every key keeps its leaf either way, and the
// sample size exceeds the batch, so no phase ends and the sample only
// grows.
func TestBatchTracksLikeSingleOps(t *testing.T) {
	const n = 1 << 16
	keys, vals := sortedPairs(16*n, 13)
	batch := append([]uint64(nil), keys...)
	rand.New(rand.NewSource(4)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	batch = batch[:n]
	type tally struct {
		samples int64
		units   int
	}
	run := func(cacheFraction float64, op func(s *Session)) tally {
		o := obs.New(64, 16)
		a := BulkLoadAdaptive(AdaptiveConfig{
			Tree:          Config{DefaultEncoding: EncSuccinct},
			NoEagerExpand: true,
			CacheFraction: cacheFraction,
			InitialSkip:   7, FixedSkip: true,
			DisableBloom:  true, // every Track reaches the sample
			MaxSampleSize: 1 << 20,
			Obs:           o,
		}, keys, vals)
		defer a.Close()
		a.Mgr.RestoreAdaptationState(0, 0, 1<<20)
		s := a.NewSession()
		op(s)
		s.Flush()
		if a.Mgr.Adaptations() != 0 {
			t.Fatal("an adaptation phase ended: the sample was reset")
		}
		return tally{o.Reg.Counter("ahi_samples_total").Load(), a.Mgr.TrackedUnits()}
	}
	out := make([]uint64, n)
	found := make([]bool, n)
	for _, c := range []struct {
		name          string
		cache         float64
		batch, single func(s *Session)
	}{
		{"InsertBatch", 0,
			func(s *Session) { s.InsertBatch(batch, batch, found) },
			func(s *Session) {
				for _, k := range batch {
					s.Insert(k, k)
				}
			}},
		{"LookupBatch", 0,
			func(s *Session) { s.LookupBatch(batch, out, found) },
			func(s *Session) {
				for _, k := range batch {
					s.Lookup(k)
				}
			}},
		{"LookupBatchCached", 0.05,
			func(s *Session) {
				s.LookupBatch(batch, out, found) // fills the cache
				s.LookupBatch(batch, out, found)
			},
			func(s *Session) {
				for range 2 {
					for _, k := range batch {
						s.Lookup(k)
					}
				}
			}},
	} {
		got, want := run(c.cache, c.batch), run(c.cache, c.single)
		if want.samples == 0 || want.units == 0 {
			t.Fatalf("%s: nothing sampled: %+v", c.name, want)
		}
		if got != want {
			t.Errorf("%s: batch tracked %+v, one by one %+v", c.name, got, want)
		}
	}
}

// TestInsertBatchAdaptMidRun pins the lock protocol between batched
// inserts and synchronous adaptation. A tracked insert can complete a
// sampling phase whose adaptation wants to migrate the very leaf the run
// just wrote; the migration takes that leaf's write lock, so tracking must
// happen only after the run releases it. This deadlocked: sample-every-key
// knobs put a phase boundary inside a merged insert run and InsertBatch
// hung forever in MigrateLeaf.
func TestInsertBatchAdaptMidRun(t *testing.T) {
	keys, vals := sortedPairs(50000, 9)
	base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:        Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true},
		InitialSkip: 1, MinSkip: 1, MaxSkip: 1,
		MaxSampleSize: 8, // a phase every 8 tracked ops: adapt lands mid-batch
		MemoryBudget:  base.Bytes() + 2*(LeafCap*16+leafHeaderBytes),
	}, keys, vals)
	defer a.Close()
	s := a.NewSession()
	const hot = 256
	ik := make([]uint64, hot)
	iv := make([]uint64, hot)
	ib := make([]bool, hot)
	for round := 0; round < 200; round++ {
		for i := range ik {
			ik[i] = keys[i%hot] // one or two leaves: whole batch merges into runs
			iv[i] = uint64(round)
		}
		s.InsertBatch(ik, iv, ib)
	}
	if err := a.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}
