package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"ahi"
	"ahi/internal/bitutil"
	"ahi/internal/btree"
	"ahi/internal/cache"
	"ahi/internal/core"
	"ahi/internal/wal"
)

// The ladder measures what each layer costs by construction: every rung
// times calls into one layer's exported functions from out here, on the
// workload's own keys, and a *_self_ns figure is a rung minus the rung
// below it on identical keys. Rungs run on scratch indexes built from the
// workload's data set with the workload's options and warmed by replaying
// the head of its stream, so they can be mutated freely and never disturb
// the index the window measured.
//
// A rung times blocks of calls and reports the median block, so a stray
// GC or scheduler stall does not move it.
type ladder struct {
	w      *world
	r      *runner
	tr     *tracer
	parent int32
	out    map[string]float64

	reads     []uint64 // keys of read entries, stream order
	readIdx   []uint32 // their data-set positions
	writeKeys []uint64 // keys of overwrite entries; data-set keys when the workload has none
	scanLens  []int    // request lengths (fixed when the workload does not scan)
	sink      uint64   // keeps the compiler from dropping a rung's reads
}

// auxRung prefixes the name of a rung that is only the lower half of a
// *_self_ns difference: it gets a span but is no metric of its own.
const auxRung = "aux: "

const (
	ladderEntries = 1 << 20                // stream prefix replayed to warm a scratch index
	rungBudget    = 150 * time.Millisecond // per rung at scale 1; shrinks with config.Scale
	rungBlock     = 1024
	leafFill      = btree.LeafCap * 7 / 10 // keys per bulk-loaded leaf at the default occupancy
)

// measure times blocks of blockCalls calls of fn, which reports how many
// units (keys, pairs) a call processed, until n calls are done or the
// rung's time budget is spent, and records the median ns per unit.
func (l *ladder) measure(name string, n, blockCalls int, fn func(i int) int) float64 {
	return l.measureEach([]string{name}, n, blockCalls, fn)[0]
}

// measureEach times len(names) variants of a call on alternating blocks:
// fns[v] runs on blocks v, v+len(names), ... So the variants see keys of the
// same distribution at the same moments, and neither inherits a CPU cache
// the other warmed; their difference is a *_self_ns figure.
func (l *ladder) measureEach(names []string, n, blockCalls int, fns ...func(i int) int) []float64 {
	out := make([]float64, len(names))
	if blockCalls > n {
		blockCalls = n
	}
	if n <= 0 {
		for _, name := range names {
			l.out[name] = 0
		}
		return out
	}
	start := time.Now()
	per := make([][]float64, len(names))
	budget := time.Duration(float64(rungBudget) * min(1, 10*l.w.cfg.Scale) * float64(len(names)))
	for b, i := 0, 0; i+blockCalls <= n && (b < 4*len(names) || time.Since(start) < budget); b, i = b+1, i+blockCalls {
		v := b % len(names)
		units := 0
		t0 := time.Now()
		for j := i; j < i+blockCalls; j++ {
			units += fns[v](j)
		}
		d := time.Since(t0)
		if units > 0 {
			per[v] = append(per[v], float64(d.Nanoseconds())/float64(units))
		}
	}
	for v, name := range names {
		out[v] = median(per[v])
		l.tr.rung(l.parent, name, start, out[v])
		if !strings.HasPrefix(name, auxRung) {
			l.out[name] = out[v]
		}
	}
	return out
}

// warmEntries is how much of the stream's head warms a scratch index; the
// rungs take their operands from the entries after it, so no rung replays
// a call the warm-up already made.
func (l *ladder) warmEntries() int {
	return min(len(l.src().ops)/2, ladderEntries)
}

// collect pulls the operands of the rungs out of the stream the window ran.
func (l *ladder) collect() {
	ops := l.src().ops[l.warmEntries():]
	if len(ops) > ladderEntries {
		ops = ops[:ladderEntries]
	}
	for _, e := range ops {
		switch e.kind {
		case opLookup, opLookupBatch:
			l.reads = append(l.reads, e.key)
			l.readIdx = append(l.readIdx, e.idx)
		case opScanBatch:
			l.reads = append(l.reads, e.key)
			l.readIdx = append(l.readIdx, e.idx)
			l.scanLens = append(l.scanLens, int(e.n))
		case opOverwrite, opInsertBatch:
			l.writeKeys = append(l.writeKeys, e.key)
		}
	}
	if len(l.scanLens) == 0 {
		l.scanLens = []int{640}
	}
	if len(l.writeKeys) < rungBlock {
		l.writeKeys = l.reads
	}
}

// src is the stream the rungs draw from: the window's, or its first
// segment's where traffic shifts.
func (l *ladder) src() *stream {
	if l.w.spec.phases > 1 {
		return l.r.clients[0].streams[1]
	}
	return l.r.clients[0].streams[0]
}

// scratchTree bulk-loads a tree like the workload's, warmed by replaying
// the stream head through a session.
func (l *ladder) scratchTree(mod func(*ahi.BTreeOptions)) *ahi.BTree {
	opts := l.w.options()
	if mod != nil {
		mod(&opts)
	}
	t := ahi.BulkLoadBTree(opts, l.w.keys, l.w.vals)
	l.warm(t.NewSession())
	return t
}

// warm replays the head of the stream against a scratch index with a
// throw-away client (its oracle state is never verified).
func (l *ladder) warm(ses *ahi.BTreeSession) {
	w := *l.w
	w.tree, w.sharded = nil, nil
	w.freshVal = make([]uint64, len(w.fresh))
	src := l.src()
	c := &client{w: &w, ses: ses, batch: ses, read: new(hist), write: new(hist),
		bk: make([]uint64, batchKeys), bv: make([]uint64, batchKeys), bf: make([]bool, batchKeys)}
	c.use(&stream{ops: src.ops}, 0)
	c.run(int64(l.warmEntries()))
}

func (l *ladder) val(k uint64, i int) uint64 { return l.w.value(k, uint64(i)) }

// lookups is the rung body that looks up the i-th read key through f.
func (l *ladder) lookups(f func(uint64) (uint64, bool)) func(int) int {
	return func(i int) int {
		v, _ := f(l.reads[i])
		l.sink += v
		return 1
	}
}

// distinct cuts keys into batches of size distinct keys each.
func distinct(keys []uint64, size, maxBatches int) [][]uint64 {
	var out [][]uint64
	seen := make(map[uint64]struct{}, size)
	cur := make([]uint64, 0, size)
	for _, k := range keys {
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		if cur = append(cur, k); len(cur) == size {
			out = append(out, cur)
			if len(out) == maxBatches {
				break
			}
			cur = make([]uint64, 0, size)
			clear(seen)
		}
	}
	return out
}

// run climbs every rung and returns the per-layer timing metrics.
func (l *ladder) run() map[string]float64 {
	l.collect()
	l.treeRungs()
	runtime.GC()
	l.shardRungs()
	runtime.GC()
	l.walRungs()
	l.migrationRungs()
	l.cacheRungs()
	l.coreRungs()
	l.bitutilRungs()
	l.timerRung()
	return l.out
}

func (l *ladder) treeRungs() {
	reads, nr := l.reads, len(l.reads)
	var sink uint64

	// Cache on: the configuration the single-tree workloads serve from.
	t := l.scratchTree(nil)
	ses := t.NewSession()
	l.measure("btree.tree_lookup_ns", nr, rungBlock, l.lookups(t.Tree.Lookup))
	cached := l.measure("btree.session_lookup_cached_ns", nr, rungBlock, l.lookups(ses.Lookup))
	bv, bf := make([]uint64, batchKeys), make([]bool, batchKeys)
	l.measure("btree.lookup_batch_ns_per_key", nr/batchKeys, 8, func(i int) int {
		ses.LookupBatch(reads[i*batchKeys:(i+1)*batchKeys], bv, bf)
		return batchKeys
	})
	var buf ahi.ScanBuffer
	reqs := make([]ahi.ScanReq, scanBatchReqs)
	l.measure("btree.scan_batch_ns_per_pair", nr/scanBatchReqs, 16, func(i int) int {
		for r := range reqs {
			j := i*scanBatchReqs + r
			reqs[r] = ahi.ScanReq{From: reads[j], N: l.scanLens[j%len(l.scanLens)]}
		}
		buf.Reset(len(reqs))
		return ses.ScanBatch(reqs, &buf)
	})
	it := t.Tree.NewIterator()
	l.measure("btree.iterator_ns_per_pair", nr, 64, func(i int) int {
		n := 0
		for ok := it.Seek(reads[i]); ok && n < l.scanLens[i%len(l.scanLens)]; ok = it.Next() {
			sink += it.Value()
			n++
		}
		return n
	})
	wk := l.writeKeys
	l.measure("btree.tree_insert_ns", len(wk)/2, rungBlock, func(i int) int {
		t.Tree.Insert(wk[i], l.val(wk[i], i))
		return 1
	})
	l.measure("btree.session_insert_ns", len(wk)/2, rungBlock, func(i int) int {
		j := len(wk)/2 + i
		ses.Insert(wk[j], l.val(wk[j], j))
		return 1
	})
	batches := distinct(wk, batchKeys, 256)
	l.measure("btree.insert_batch_ns_per_key", len(batches), 8, func(i int) int {
		for j, k := range batches[i] {
			bv[j] = l.val(k, j)
		}
		ses.InsertBatch(batches[i], bv, bf)
		return batchKeys
	})
	fresh := l.w.fresh
	if len(fresh) > 1<<16 {
		fresh = fresh[:1<<16]
	}
	for i, k := range fresh {
		ses.Insert(k, l.val(k, i))
	}
	l.measure("btree.session_delete_ns", len(fresh), rungBlock, func(i int) int {
		ses.Delete(fresh[i])
		return 1
	})
	t.Close()

	// Cache off, same keys: the sampler's share is the session rung minus
	// the bare-tree rung on this tree, and the cache's net effect is the
	// cached session rung minus the uncached one.
	t = l.scratchTree(func(o *ahi.BTreeOptions) { o.CacheFraction = 0 })
	ses = t.NewSession()
	pair := l.measureEach([]string{auxRung + "Tree.Lookup on the cache-off tree", "btree.session_lookup_ns"}, nr, rungBlock,
		l.lookups(t.Tree.Lookup),
		l.lookups(ses.Lookup))
	uncached := pair[1]
	l.out["core.sampler_self_ns"] = uncached - pair[0]
	l.out["cache.lookup_delta_ns"] = cached - uncached
	t.Close()

	// Cache off, flight recorder at 1 in 64: what tracing adds to a lookup.
	t = l.scratchTree(func(o *ahi.BTreeOptions) {
		o.CacheFraction = 0
		o.Obs = ahi.NewObservability()
		o.Tracing = &ahi.TracingConfig{SampleEvery: 64}
	})
	ses = t.NewSession()
	traced := l.measure("obs.traced64_lookup_ns", nr, rungBlock, l.lookups(ses.Lookup))
	l.out["obs.traced64_overhead_pct"] = 100 * (traced/uncached - 1)
	t.Close()
	runtime.KeepAlive(sink)
}

func (l *ladder) shardRungs() {
	w := l.w
	reads, nr := l.reads, len(l.reads)
	opts := w.options()
	opts.Shards, opts.Workers, opts.AsyncMigrations = shardCount, w.nproc, true
	sh := ahi.BulkLoadShardedBTree(opts, w.keys, w.vals)
	defer sh.Close()
	bv, bf := make([]uint64, batchKeys), make([]bool, batchKeys)
	for i := 0; i+batchKeys <= nr; i += batchKeys {
		sh.LookupBatch(reads[i:i+batchKeys], bv, bf)
	}
	sh.DrainMigrations()

	var sink uint64
	// Lookups through the front against lookups straight through a session
	// of the owning shard: the difference is routing, the shard mutex and
	// its counter.
	per := len(w.keys) / shardCount
	sess := make([]*ahi.BTreeSession, shardCount)
	for i := range sess {
		sess[i] = sh.Shard(i).NewSession()
	}
	owner := make([]uint8, nr)
	for i, idx := range l.readIdx {
		owner[i] = uint8(min(int(idx)/per, shardCount-1))
	}
	pair := l.measureEach([]string{"shard.lookup_ns", auxRung + "Session.Lookup on the owning shard"}, nr, rungBlock,
		func(i int) int { // spelled out like its partner below, so both rungs pay the same call overhead
			v, _ := sh.Lookup(reads[i])
			sink += v
			return 1
		},
		func(i int) int {
			v, _ := sess[owner[i]].Lookup(reads[i])
			sink += v
			return 1
		})
	l.out["shard.route_self_ns"] = pair[0] - pair[1]

	l.measure("shard.lookup_batch_ns_per_key", nr/batchKeys, 8, func(i int) int {
		sh.LookupBatch(reads[i*batchKeys:(i+1)*batchKeys], bv, bf)
		return batchKeys
	})
	batches := distinct(l.writeKeys, batchKeys, 256)
	l.measure("shard.insert_batch_ns_per_key", len(batches), 8, func(i int) int {
		for j, k := range batches[i] {
			bv[j] = l.val(k, j)
		}
		sh.InsertBatch(batches[i], bv, bf)
		return batchKeys
	})
	var buf ahi.ScanBuffer
	reqs := make([]ahi.ScanReq, scanBatchReqs)
	l.measure("shard.scan_batch_ns_per_pair", nr/scanBatchReqs, 16, func(i int) int {
		for r := range reqs {
			j := i*scanBatchReqs + r
			reqs[r] = ahi.ScanReq{From: reads[j], N: l.scanLens[j%len(l.scanLens)]}
		}
		buf.Reset(len(reqs))
		return sh.ScanBatch(reqs, &buf)
	})
	runtime.KeepAlive(sink)
}

// walRungs times the log alone and a durable Session.Insert against a
// volatile one on twin trees holding every 16th key (building a second
// full-size durable tree would cost as much as the workload's set-up).
func (l *ladder) walRungs() {
	w := l.w
	l.out["wal.append_commit_ns"], l.out["wal.insert_self_ns"] = 0, 0
	dir, err := os.MkdirTemp(w.cfg.OutDir, "ladder-wal-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder: wal rungs skipped:", err)
		return
	}
	defer os.RemoveAll(dir)

	log, _, err := wal.Open(dir+"/log", wal.Options{Policy: wal.SyncInterval, Interval: 5 * time.Millisecond})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder: wal rungs skipped:", err)
		return
	}
	var payload [16]byte
	l.measure("wal.append_commit_ns", 1<<18, rungBlock, func(i int) int {
		if _, err := log.AppendCommit(wal.RecInsert, wal.EncodeInsert(payload[:0], uint64(i), uint64(i))); err != nil {
			panic(err)
		}
		return 1
	})
	log.Close()

	var keys, vals []uint64
	for i := 0; i < len(w.keys); i += 16 {
		keys = append(keys, w.keys[i])
		vals = append(vals, w.vals[i])
	}
	opts := w.options()
	opts.MemoryBudget = w.budget / 16
	load := func(t *ahi.BTree) *ahi.BTreeSession {
		s := t.NewSession()
		s.InsertBatch(keys, vals, make([]bool, len(keys)))
		return s
	}
	volatile := ahi.NewBTree(opts)
	defer volatile.Close()
	opts.Durability = &ahi.DurabilityOptions{Dir: dir + "/tree", SyncPolicy: ahi.SyncInterval,
		SyncInterval: 5 * time.Millisecond, CheckpointEvery: 1 << 20}
	durable, _, err := ahi.OpenBTree(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ladder: wal.insert_self_ns skipped:", err)
		return
	}
	defer durable.Close()
	vs, ds := load(volatile), load(durable)
	// Overwrites at the stream's positions, folded onto the subset.
	n := min(len(l.readIdx), 1<<17)
	pair := l.measureEach([]string{auxRung + "Session.Insert on the volatile twin", auxRung + "Session.Insert on the durable twin"}, n, rungBlock,
		func(i int) int {
			k := keys[int(l.readIdx[i])/16]
			vs.Insert(k, l.val(k, i))
			return 1
		},
		func(i int) int {
			k := keys[int(l.readIdx[i])/16]
			ds.Insert(k, l.val(k, i))
			return 1
		})
	l.out["wal.insert_self_ns"] = pair[1] - pair[0]
}

// migrationRungs re-encodes every leaf of a scratch plain tree (an eighth
// of the data set) from Succinct to Gapped, back, and to Packed.
func (l *ladder) migrationRungs() {
	n := len(l.w.keys) / 8
	t := btree.BulkLoad(btree.Config{DefaultEncoding: btree.EncSuccinct}, l.w.keys[:n], l.w.vals[:n])
	var leaves []*btree.Leaf
	t.WalkLeaves(func(lf *btree.Leaf) bool {
		leaves = append(leaves, lf)
		return true
	})
	for _, m := range []struct {
		name   string
		target core.Encoding
	}{
		{"btree.migrate_s2g_ns", btree.EncGapped},
		{"btree.migrate_g2s_ns", btree.EncSuccinct},
		{"btree.migrate_s2p_ns", btree.EncPacked},
	} {
		l.measure(m.name, len(leaves), 64, func(i int) int {
			t.MigrateLeaf(leaves[i], m.target)
			return 1
		})
		// Leaves the time budget cut off still have to change encoding,
		// or the next rung would time no-ops.
		for _, lf := range leaves {
			t.MigrateLeaf(lf, m.target)
		}
	}
}

// cacheRungs drives a stand-alone cache of the workload's size with the
// workload's read keys.
func (l *ladder) cacheRungs() {
	for _, name := range []string{"cache.probe_miss_ns", "cache.admit_ns", "cache.probe_hit_ns", "cache.invalidate_ns"} {
		l.out[name] = 0
	}
	c := cache.New(int64(cacheFraction * float64(l.w.budget)))
	if c == nil {
		return
	}
	reads, nr := l.reads, len(l.reads)
	var sink uint64
	l.measure("cache.probe_miss_ns", nr, rungBlock, func(i int) int {
		v, _, _ := c.ProbeOrSnap(reads[i])
		sink += v
		return 1
	})
	l.measure("cache.admit_ns", nr, rungBlock, func(i int) int {
		k := reads[i]
		c.Admit(k, k, c.Snap(k), false, true)
		return 1
	})
	var hits []uint64
	for _, k := range reads {
		if _, ok := c.Probe(k); ok {
			hits = append(hits, k)
		}
	}
	l.measure("cache.probe_hit_ns", len(hits), rungBlock, func(i int) int {
		v, _, _ := c.ProbeOrSnap(hits[i])
		sink += v
		return 1
	})
	l.measure("cache.invalidate_ns", len(hits), rungBlock, func(i int) int {
		c.Invalidate(hits[i])
		return 1
	})
	runtime.KeepAlive(sink)
}

// coreRungs drives a stand-alone adaptation manager whose callbacks do
// nothing: the sampling decision and the tracking of a sampled access.
func (l *ladder) coreRungs() {
	units := int64(len(l.w.keys) / leafFill)
	m := core.New(core.Config[uint64, struct{}]{
		Hash: func(id uint64) uint64 { return id * 0x9E3779B97F4A7C15 },
		Units: func() core.UnitCounts {
			return core.UnitCounts{Compressed: units, CompressedAvg: 1 << 10, UncompressedAvg: 2 << 10}
		},
		UsedMemory:   func() int64 { return units << 10 },
		Heuristic:    func(uint64, *struct{}, *core.Stats, core.Env) core.Action { return core.Action{} },
		Migrate:      func(id uint64, _ struct{}, _ core.Encoding) (uint64, bool) { return id, false },
		AdaptiveSkip: true,
	})
	defer m.Close()
	s := m.NewSampler()
	samples := 0
	l.measure("core.is_sample_ns", 1<<22, rungBlock, func(int) int {
		if s.IsSample() {
			samples++
		}
		return 1
	})
	idx := l.readIdx
	l.measure("core.track_ns", len(idx), rungBlock, func(i int) int {
		s.Track(uint64(idx[i])/leafFill, core.Read, struct{}{})
		return 1
	})
	runtime.KeepAlive(samples)
}

// bitutilRungs times the packed-array kernels on arrays of leaf size cut
// from the data set itself, so key and value fields have their real widths.
func (l *ladder) bitutilRungs() {
	w := l.w
	windows := min(len(w.keys)/leafFill, 4096)
	step := len(w.keys) / leafFill / windows * leafFill
	keys := make([]bitutil.FORArray, windows)
	vals := make([]bitutil.FORArray, windows)
	packed := make([]bitutil.PackedArray, windows)
	probes := make([]uint64, windows)
	deltas := make([]uint64, leafFill)
	for i := range keys {
		lo := i * step
		ks := w.keys[lo : lo+leafFill]
		keys[i] = bitutil.NewFORArray(ks)
		vals[i] = bitutil.NewFORArray(w.vals[lo : lo+leafFill])
		for j, k := range ks {
			deltas[j] = k - ks[0]
		}
		packed[i] = bitutil.NewPackedArray(deltas, bitutil.BitsFor(deltas[leafFill-1]))
		probes[i] = ks[(i*31)%leafFill]
	}
	sink := 0
	l.measure("bitutil.for_search_ns", 1<<20, rungBlock, func(i int) int {
		j := i % windows
		sink += keys[j].Search(probes[j])
		return 1
	})
	l.measure("bitutil.packed_get_ns", 1<<20, rungBlock, func(i int) int {
		sink += int(packed[i%windows].Get(i % leafFill))
		return 1
	})
	dst := make([]uint64, leafFill)
	l.measure("bitutil.decode_range_add_ns_per_elem", 1<<18, 256, func(i int) int {
		j := (i / 2) % windows
		if i%2 == 0 {
			return keys[j].DecodeRange(0, leafFill, dst)
		}
		return vals[j].DecodeRange(0, leafFill, dst)
	})
	runtime.KeepAlive(sink)
}

// timerRung is the cost of the clock pair that brackets a timed call.
func (l *ladder) timerRung() {
	var acc time.Duration
	l.measure("bench.timer_ns", 1<<20, rungBlock, func(int) int {
		t0 := time.Now()
		acc += time.Since(t0)
		return 1
	})
	runtime.KeepAlive(acc)
}
