package shard

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ahi/internal/btree"
	"ahi/internal/wal"
)

func durShardCfg(dir string, shards int) Config {
	return Config{
		Shards: shards,
		Adaptive: btree.AdaptiveConfig{
			Tree:         btree.Config{DefaultEncoding: btree.EncSuccinct},
			MemoryBudget: 64 << 20,
			Dur: &btree.DurabilityConfig{
				Dir:          dir,
				Policy:       wal.SyncOS,
				SegmentBytes: 1 << 16,
			},
		},
	}
}

func TestShardDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(durShardCfg(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	if st.WarmShards != 0 || st.Replayed != 0 {
		t.Fatalf("fresh open reported recovery: %+v", st)
	}
	const n = 4000
	stride := ^uint64(0) / n // spread keys across all shards
	for i := uint64(0); i < n; i++ {
		s.Insert(i*stride, i)
	}
	for i := uint64(0); i < n; i += 7 {
		if !s.Delete(i * stride) {
			t.Fatalf("delete %d", i)
		}
	}
	s.Close()

	// Each shard must have its own log directory.
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, "shard0")); err != nil {
			t.Fatalf("shard%d log dir missing: %v", i, err)
		}
	}

	s2, st2, err := Open(durShardCfg(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st2.Replayed == 0 {
		t.Fatalf("nothing replayed: %+v", st2)
	}
	if len(st2.PerShard) != 4 {
		t.Fatalf("per-shard stats: %d", len(st2.PerShard))
	}
	for i := uint64(0); i < n; i++ {
		v, ok := s2.Lookup(i * stride)
		if i%7 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected", i)
			}
			continue
		}
		if !ok || v != i {
			t.Fatalf("key %d: %d %v", i, v, ok)
		}
	}
}

func TestShardDurableCheckpointWarm(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(durShardCfg(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]uint64, 0, 8000)
	vals := make([]uint64, 0, 8000)
	stride := ^uint64(0) / 8000
	for i := uint64(0); i < 8000; i++ {
		keys = append(keys, i*stride)
		vals = append(vals, i)
	}
	ins := make([]bool, len(keys))
	s.InsertBatch(keys, vals, ins)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, st, err := Open(durShardCfg(dir, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.WarmShards != 4 {
		t.Fatalf("warm shards %d want 4 (%+v)", st.WarmShards, st)
	}
	for i, v := range vals {
		got, ok := s2.Lookup(keys[i])
		if !ok || got != v {
			t.Fatalf("key %d: %d %v", keys[i], got, ok)
		}
	}
}

// TestShardDurableReopenOneManager: a reopened durable front wires its
// recovered shards to one manager, which resumes the sampling state of
// the newest shard checkpoint — here the one of a lower shard index.
func TestShardDurableReopenOneManager(t *testing.T) {
	dir := t.TempDir()
	cfg := durShardCfg(dir, 4)
	cfg.Adaptive.InitialSkip = 0 // sample every access: phases come quickly
	cfg.Adaptive.FixedSkip = true
	cfg.Adaptive.MaxSampleSize = 256
	s, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	keys := make([]uint64, n)
	stride := ^uint64(0) / n
	for i := range keys {
		keys[i] = uint64(i) * stride
	}
	s.InsertBatch(keys, keys, make([]bool, n))
	lookups := func() {
		for i := 0; i < 4*n; i++ {
			s.Lookup(keys[(i*7919)%n])
		}
	}
	lookups()
	older := s.Shard(0).Mgr.Epoch()
	if err := s.Shard(3).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	lookups()
	newest := s.Shard(0).Mgr.Epoch()
	if err := s.Shard(1).Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if newest <= older {
		t.Fatalf("no phase ran between the checkpoints: epochs %d and %d", older, newest)
	}
	s.Close()

	s2, st, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st.WarmShards != 2 {
		t.Fatalf("warm shards %d want 2", st.WarmShards)
	}
	mgr := s2.Shard(0).Mgr
	for i := 1; i < s2.Shards(); i++ {
		if s2.Shard(i).Mgr != mgr {
			t.Fatalf("reopened shard %d has a manager of its own", i)
		}
	}
	if e := mgr.Epoch(); e != newest {
		t.Fatalf("reopened manager at epoch %d, the newest checkpoint's is %d (the older one's %d)", e, newest, older)
	}
	for _, k := range keys {
		if v, ok := s2.Lookup(k); !ok || v != k {
			t.Fatalf("key %d: %d %v", k, v, ok)
		}
	}
}

func TestShardOpenVolatile(t *testing.T) {
	s, st, err := Open(Config{Shards: 2, Adaptive: btree.AdaptiveConfig{Tree: btree.Config{DefaultEncoding: btree.EncSuccinct}}})
	if err != nil || st.WarmShards != 0 {
		t.Fatalf("volatile open: %v %+v", err, st)
	}
	defer s.Close()
	s.Insert(1, 2)
	if v, ok := s.Lookup(1); !ok || v != 2 {
		t.Fatal("volatile sharded tree broken")
	}
	if err := s.SyncWAL(); err != nil {
		t.Fatal(err)
	}
}

// TestShardOpenNamesFailingShard: a shard whose log cannot be opened
// fails Open, and the error leads with that shard's directory.
func TestShardOpenNamesFailingShard(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "shard2")
	if err := os.WriteFile(bad, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(durShardCfg(dir, 4))
	if err == nil {
		s.Close()
		t.Fatal("Open succeeded with shard 2's directory a plain file")
	}
	if !strings.HasPrefix(err.Error(), bad+": ") {
		t.Fatalf("error %q does not lead with %s", err, bad)
	}
}
