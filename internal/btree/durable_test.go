package btree

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ahi/internal/wal"
)

func durCfg(dir string, every int64) AdaptiveConfig {
	return AdaptiveConfig{
		Tree:         Config{DefaultEncoding: EncSuccinct},
		MemoryBudget: 64 << 20,
		Dur: &DurabilityConfig{
			Dir:             dir,
			Policy:          wal.SyncOS,
			SegmentBytes:    1 << 16,
			CheckpointEvery: every,
		},
	}
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmStart {
		t.Fatal("fresh dir reported warm start")
	}
	s := a.NewSession()
	const n = 2000
	for i := uint64(0); i < n; i++ {
		s.Insert(i*3, i)
	}
	for i := uint64(0); i < n; i += 5 {
		if !s.Delete(i * 3) {
			t.Fatalf("delete %d", i*3)
		}
	}
	a.Close()

	b, st2, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if st2.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	s2 := b.NewSession()
	for i := uint64(0); i < n; i++ {
		v, ok := s2.Lookup(i * 3)
		if i%5 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected", i*3)
			}
			continue
		}
		if !ok || v != i {
			t.Fatalf("key %d: %d %v", i*3, v, ok)
		}
	}
	if err := b.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableSkipsOldAdaptRecords: logs written by older builds hold a
// RecAdapt record per migration. Recovery skips such a record, counts it
// in SkippedRedoOptional, and replays the writes logged after it.
func TestDurableSkipsOldAdaptRecords(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewSession()
	for i := uint64(0); i < 100; i++ {
		s.Insert(i, i+1)
	}
	a.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment in %s: %v", dir, err)
	}
	var adapt [9]byte // [unit u64 | target u8]
	binary.LittleEndian.PutUint64(adapt[:], 7)
	adapt[8] = uint8(EncGapped)
	frames := wal.AppendFrame(nil, wal.RecAdapt, adapt[:])
	frames = wal.AppendFrame(frames, wal.RecInsert, wal.EncodeInsert(nil, 1000, 1001))
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frames); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if st.SkippedRedoOptional != 1 || st.Replayed != 101 {
		t.Fatalf("skipped %d redo-optional and replayed %d records, want 1 and 101", st.SkippedRedoOptional, st.Replayed)
	}
	for k := uint64(0); k < 100; k++ {
		if v, ok := b.Tree.Lookup(k); !ok || v != k+1 {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
	}
	if v, ok := b.Tree.Lookup(1000); !ok || v != 1001 {
		t.Fatalf("the insert logged after the adapt record: %d %v", v, ok)
	}
}

func TestDurableCheckpointWarmRestore(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewSession()
	const n = 5000
	for i := uint64(0); i < n; i++ {
		s.Insert(i, i+1)
	}
	// Force a non-default encoding mix: migrate a few leaves by hand, as
	// the adaptation manager would.
	var migrated []*Leaf
	a.Tree.WalkLeaves(func(l *Leaf) bool {
		if len(migrated) < 4 {
			a.Tree.MigrateLeaf(l, EncPacked)
			migrated = append(migrated, l)
			return true
		}
		return false
	})
	wantS, wantP, wantG := a.Tree.LeafCounts()
	if wantP == 0 {
		t.Fatal("no packed leaves after forced migration")
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint tail.
	for i := uint64(n); i < n+100; i++ {
		s.Insert(i, i+1)
	}
	a.Close()

	b, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !st.WarmStart || st.Barrier == 0 {
		t.Fatalf("expected warm start: %+v", st)
	}
	if st.Replayed != 100 {
		t.Fatalf("replayed %d want 100", st.Replayed)
	}
	gotS, gotP, gotG := b.Tree.LeafCounts()
	// The 100 replayed inserts only touch the rightmost leaves; the packed
	// ones restored from the checkpoint must still be packed.
	if gotP != wantP {
		t.Fatalf("packed leaves not restored: got (%d,%d,%d) checkpointed (%d,%d,%d)",
			gotS, gotP, gotG, wantS, wantP, wantG)
	}
	s2 := b.NewSession()
	for i := uint64(0); i < n+100; i++ {
		if v, ok := s2.Lookup(i); !ok || v != i+1 {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
	if err := b.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableAdaptationStateRestored(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	a.Mgr.RestoreAdaptationState(7, 123, 256) // pretend the sampler converged
	s := a.NewSession()
	for i := uint64(0); i < 100; i++ {
		s.Insert(i, i)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	a.Close()

	b, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !st.WarmStart {
		t.Fatal("cold start")
	}
	if b.Mgr.Epoch() != 7 {
		t.Fatalf("epoch %d want 7", b.Mgr.Epoch())
	}
	if b.Mgr.SkipLength() != 123 {
		t.Fatalf("skip %d want 123", b.Mgr.SkipLength())
	}
	if b.Mgr.SampleSize() != 256 {
		t.Fatalf("sample size %d want 256", b.Mgr.SampleSize())
	}
}

func TestDurableBatchAndAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 500))
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewSession()
	keys := make([]uint64, 100)
	vals := make([]uint64, 100)
	inserted := make([]bool, 100)
	for round := uint64(0); round < 20; round++ {
		for i := range keys {
			keys[i] = round*100 + uint64(i)
			vals[i] = keys[i] * 2
		}
		s.InsertBatch(keys, vals, inserted)
	}
	a.Close()
	if a.WALStats() == nil {
		t.Fatal("no wal stats on a durable tree")
	}

	b, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !st.WarmStart {
		t.Fatal("auto checkpoint never fired (2000 records at CheckpointEvery=500)")
	}
	s2 := b.NewSession()
	for i := uint64(0); i < 2000; i++ {
		if v, ok := s2.Lookup(i); !ok || v != i*2 {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
}

// TestDurableCheckpointUnderWrites races checkpoints against concurrent
// writers and verifies the final recovered state: every acked write must
// survive (run with -race in CI's recovery-race leg).
func TestDurableCheckpointUnderWrites(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a.NewSession()
			for i := 0; i < per; i++ {
				k := uint64(w*per + i)
				s.Insert(k, k+7)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			if err := a.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	a.Close()

	b, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	s := b.NewSession()
	for k := uint64(0); k < workers*per; k++ {
		if v, ok := s.Lookup(k); !ok || v != k+7 {
			t.Fatalf("key %d lost across checkpointed recovery: %d %v", k, v, ok)
		}
	}
}

// TestCheckpointBlobUnderSplits takes checkpoint images of a tree whose
// leaves split under the walk. Every blob must restore: an image that read
// a leaf's pairs before a split and its sibling link after it holds the
// moved keys twice, and recovery refuses it.
func TestCheckpointBlobUnderSplits(t *testing.T) {
	cfg := Config{DefaultEncoding: EncGapped}
	a := NewAdaptive(AdaptiveConfig{Tree: cfg, MemoryBudget: 64 << 20})
	defer a.Close()
	for k := uint64(0); k < 4096; k++ {
		a.Tree.Insert(k<<32, k)
	}
	done := make(chan struct{})
	go func() { // random keys: the splits land all over the chain
		defer close(done)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 150000; i++ {
			a.Tree.Insert(rng.Uint64()>>20, uint64(i))
		}
	}()
	for n := 0; ; n++ {
		if _, _, err := treeFromCheckpoint(cfg, a.encodeCheckpoint()); err != nil {
			t.Fatalf("checkpoint image %d: %v", n, err)
		}
		select {
		case <-done:
			return
		default:
		}
	}
}

// TestDurableReopenWhileReaders races recovery of a second tree from the
// same directory family against readers of the first — the -race leg's
// concurrent-reopen scenario.
func TestDurableReopenWhileReaders(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewSession()
	for i := uint64(0); i < 1000; i++ {
		s.Insert(i, i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rs := a.NewSession()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := uint64(0); i < 1000; i += 17 {
					rs.Lookup(i)
				}
			}
		}()
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	a.Close()

	b, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !st.WarmStart {
		t.Fatal("cold start after checkpoint")
	}
}

func TestDurableCorruptCheckpointBlob(t *testing.T) {
	if _, _, err := treeFromCheckpoint(Config{}, []byte{99}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("bad version: %v", err)
	}
	if _, _, err := treeFromCheckpoint(Config{}, nil); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("empty blob: %v", err)
	}
}

func TestOpenAdaptiveVolatile(t *testing.T) {
	a, st, err := OpenAdaptive(AdaptiveConfig{Tree: Config{DefaultEncoding: EncSuccinct}})
	if err != nil || st.WarmStart {
		t.Fatalf("volatile open: %v %+v", err, st)
	}
	defer a.Close()
	s := a.NewSession()
	s.Insert(1, 2)
	if v, ok := s.Lookup(1); !ok || v != 2 {
		t.Fatal("volatile tree broken")
	}
	if a.WALStats() != nil {
		t.Fatal("volatile tree has wal stats")
	}
	if err := a.SyncWAL(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSessionLookupDurOff / BenchmarkLookupBatchDurOff are the
// benchgate ratio baselines: a durability-capable build with Durability
// off must look identical to the pre-durability lookup path (the CI gate
// pins the in-run ratio vs the NoCache baselines at ≤1%). They reuse the
// cache bench fixtures so the two sides of the ratio differ only by the
// session dispatch the durability layer added.
func BenchmarkSessionLookupDurOff(b *testing.B) { benchmarkLookup(b, 0) }

func BenchmarkLookupBatchDurOff(b *testing.B) { benchmarkLookupBatch(b, 0) }

// TestDurableSuccinctDeletesReplay checkpoints a tree of Succinct leaves,
// deletes a few hundred keys spread over them — the first and the last
// key of many leaves among them — and closes without a second checkpoint.
// Recovery replays the deletes with eager expansion off, so each one
// shifts its leaf's packed words in place of a re-encode: the reopened
// tree must equal a map oracle and keep every leaf Succinct.
func TestDurableSuccinctDeletesReplay(t *testing.T) {
	dir := t.TempDir()
	a, _, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	s := a.NewSession()
	oracle := map[uint64]uint64{}
	keys, vals := make([]uint64, 1000), make([]uint64, 1000)
	inserted := make([]bool, 1000)
	for round := uint64(0); round < 20; round++ {
		for i := range keys {
			keys[i] = (round*1000 + uint64(i)) * 7
			vals[i] = keys[i]<<3 | round
			oracle[keys[i]] = vals[i]
		}
		s.InsertBatch(keys, vals, inserted)
	}
	a.Tree.WalkLeaves(func(l *Leaf) bool {
		a.Tree.MigrateLeaf(l, EncSuccinct)
		return true
	})
	if _, p, g := a.Tree.LeafCounts(); p+g != 0 {
		t.Fatalf("%d packed and %d gapped leaves left after migrating all to Succinct", p, g)
	}
	if err := a.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var doomed []uint64
	leaves := 0
	a.Tree.WalkLeaves(func(l *Leaf) bool {
		ks, _ := l.box.Load().p.appendAll(nil, nil)
		for j, k := range ks {
			if (j == 0 && leaves%2 == 0) || (j == len(ks)-1 && leaves%3 == 0) || j%41 == leaves%41 {
				doomed = append(doomed, k)
			}
		}
		leaves++
		return true
	})
	if len(doomed) < 200 {
		t.Fatalf("only %d keys to delete over %d leaves", len(doomed), leaves)
	}
	for _, k := range doomed {
		if !s.Delete(k) {
			t.Fatalf("delete %d found nothing", k)
		}
		delete(oracle, k)
	}
	a.Close()

	b, st, err := OpenAdaptive(durCfg(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if !st.WarmStart || st.Replayed != len(doomed) {
		t.Fatalf("warm start %v, replayed %d records, want %d deletes", st.WarmStart, st.Replayed, len(doomed))
	}
	if sc, p, g := b.Tree.LeafCounts(); p+g != 0 || sc != int64(leaves) {
		t.Fatalf("recovered leaves are %d succinct, %d packed, %d gapped; want %d succinct", sc, p, g, leaves)
	}
	if err := b.Tree.Validate(); err != nil {
		t.Fatal(err)
	}
	var got int
	b.Tree.WalkLeaves(func(l *Leaf) bool {
		ks, vs := l.box.Load().p.appendAll(nil, nil)
		for j, k := range ks {
			if v, ok := oracle[k]; !ok || v != vs[j] {
				t.Fatalf("recovered pair (%d,%d); oracle has (%d,%v)", k, vs[j], v, ok)
			}
		}
		got += len(ks)
		return true
	})
	if got != len(oracle) || b.Tree.Len() != len(oracle) {
		t.Fatalf("recovered %d pairs (Len %d), oracle holds %d", got, b.Tree.Len(), len(oracle))
	}
	for _, k := range doomed {
		if v, ok := b.Tree.Lookup(k); ok {
			t.Fatalf("deleted key %d recovered with value %d", k, v)
		}
	}
}
