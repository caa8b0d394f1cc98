package btree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ahi/internal/core"
	"ahi/internal/obs"
	"ahi/internal/wal"
)

// Durability layer. A durable adaptive tree pairs the in-memory index
// with a write-ahead log (internal/wal): every session write appends its
// record and applies it under a shared checkpoint barrier, then waits
// for the log's commit point before acking — acked-at-commit semantics,
// with the fsync policy deciding what "committed" guarantees. Periodic
// checkpoints snapshot every leaf's keys AND its current encoding plus
// the adaptation manager's sampling state, so recovery restores a warm
// index: encodings come back from the snapshot instead of being
// re-learned, and only the log tail after the checkpoint barrier is
// replayed. Migrations are not logged: adaptation changes a leaf's
// representation, never its contents, so it is redo-optional work in the
// sense of Graefe et al.'s concurrency control for adaptive indexing. Logs
// of older builds hold RecAdapt records; replay counts and skips them.
//
// Barrier protocol. durState.mu is the checkpoint barrier: writers hold
// it shared across append+apply, the checkpoint holds it exclusively for
// the instant it cuts the barrier LSN. That guarantees every record with
// LSN ≤ barrier is applied before the snapshot walk starts; records
// appended after the cut may also be partially reflected in the walk,
// which is safe because replay re-applies the whole tail in log order
// and upserts/deletes are idempotent — the recovered tree converges to
// the logged state. Commit waits happen outside the barrier so a
// checkpoint never waits out a disk flush it doesn't need.

// DurabilityConfig enables the write-ahead log on an adaptive tree.
type DurabilityConfig struct {
	// Dir is the log directory (segments + checkpoints). Required.
	Dir string
	// Policy is the fsync policy (default wal.SyncAlways).
	Policy wal.SyncPolicy
	// Interval is the SyncInterval fsync period (default 5ms).
	Interval time.Duration
	// SegmentBytes rotates log segments past this size (default 16 MiB).
	SegmentBytes int64
	// CheckpointEvery triggers a background checkpoint each time this many
	// records have been logged since the last one (0: manual checkpoints
	// only, via Adaptive.Checkpoint).
	CheckpointEvery int64
}

// RecoveryStats reports what opening a durable tree found and did.
type RecoveryStats struct {
	// WarmStart is true when a valid checkpoint restored the tree (leaf
	// encodings and adaptation state came back warm).
	WarmStart bool
	// Barrier is the checkpoint's barrier LSN (0 on a cold start).
	Barrier uint64
	// Segments is the number of log segments scanned.
	Segments int
	// Replayed counts user records (insert/delete/batch entries count as
	// one record each) re-applied from the log tail.
	Replayed int
	// SkippedRedoOptional counts adaptation records (written by older
	// builds) and checkpoint records the replay skipped.
	SkippedRedoOptional int
	// TornBytes is the invalid tail truncated off the last segment.
	TornBytes int64
	// WallNs is the total recovery wall time (open + restore + replay).
	WallNs int64
}

// durState is the per-tree durability runtime.
type durState struct {
	log *wal.Log
	// mu is the checkpoint barrier (see the package comment above).
	mu sync.RWMutex

	// ckptMu serializes whole checkpoints.
	ckptMu sync.Mutex
	every  int64
	since  atomic.Int64

	rec  RecoveryStats
	ckpt ckptState // the sampling state the recovered checkpoint holds

	ckptErrs atomic.Int64
	ckptCh   chan struct{}
	stopCh   chan struct{}
	wg       sync.WaitGroup
}

// walPanic aborts on a write-ahead-log failure: continuing would ack
// writes the log did not capture, silently breaking the durability
// contract. Databases abort here for the same reason.
func walPanic(op string, err error) {
	panic(fmt.Sprintf("btree: wal %s failed (durability contract broken): %v", op, err))
}

func (d *durState) noteRecords(n int64) {
	if d.every <= 0 {
		return
	}
	if d.since.Add(n) >= d.every {
		d.since.Store(0)
		select {
		case d.ckptCh <- struct{}{}:
		default: // a checkpoint is already pending
		}
	}
}

// OpenAdaptive opens a durable adaptive tree: it recovers the tree from
// cfg.Dur.Dir (newest valid checkpoint + log-tail replay, cold start on
// an empty directory) and logs every subsequent session write. With
// cfg.Dur == nil it is NewAdaptive with empty recovery stats — callers
// can branch on one constructor.
func OpenAdaptive(cfg AdaptiveConfig) (*Adaptive, *RecoveryStats, error) {
	if cfg.Dur == nil {
		return NewAdaptive(cfg), &RecoveryStats{}, nil
	}
	as, stats, err := OpenGroup(cfg, []string{cfg.Dur.Dir}, nil)
	if err != nil {
		return nil, nil, err
	}
	return as[0], &stats[0], nil
}

// OpenGroup opens one durable tree per directory in dirs — cfg.Dur gives
// every other log setting — recovering them in parallel, and wires them
// as one group (NewGroup). The manager resumes the sampling state of the
// checkpoint with the highest epoch. stats[i] is tree i's recovery.
func OpenGroup(cfg AdaptiveConfig, dirs, sources []string) ([]*Adaptive, []RecoveryStats, error) {
	n := len(dirs)
	trees := make([]*Tree, n)
	durs := make([]*durState, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range dirs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			trees[i], durs[i], err = recoverTree(cfg, dirs[i], sourceOf(cfg, sources, i))
			if err != nil {
				errs[i] = fmt.Errorf("%s: %w", dirs[i], err)
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, d := range durs {
			if d != nil {
				d.log.Close()
			}
		}
		return nil, nil, err
	}
	as := NewGroup(cfg, trees, sources)
	var newest ckptState // a cold start restores nothing: epoch 0
	for _, d := range durs {
		if d.ckpt.epoch >= newest.epoch {
			newest = d.ckpt
		}
	}
	as[0].Mgr.RestoreAdaptationState(newest.epoch, int(newest.skip), int(newest.sampleSize))
	stats := make([]RecoveryStats, n)
	for i, a := range as {
		a.attachDur(durs[i], cfg.Obs, sourceOf(cfg, sources, i))
		stats[i] = durs[i].rec
	}
	return as, stats, nil
}

// recoverTree opens the log in dir and rebuilds its tree: the newest
// valid checkpoint, then the log tail replayed onto it.
func recoverTree(cfg AdaptiveConfig, dir, source string) (*Tree, *durState, error) {
	start := time.Now()
	wopt := wal.Options{
		Policy:       cfg.Dur.Policy,
		Interval:     cfg.Dur.Interval,
		SegmentBytes: cfg.Dur.SegmentBytes,
	}
	if cfg.Obs != nil {
		var lbl []obs.Label
		if source != "" {
			lbl = []obs.Label{{K: "source", V: source}}
		}
		fsyncHist := cfg.Obs.Reg.Histogram("ahi_wal_fsync_ns", obs.DefaultLatencyBucketsNs, lbl...)
		groupHist := cfg.Obs.Reg.Histogram("ahi_wal_group_records", []int64{1, 2, 4, 8, 16, 32, 64, 128}, lbl...)
		wopt.ObserveFsyncNs = fsyncHist.Observe
		wopt.ObserveGroupN = groupHist.Observe
	}
	log, info, err := wal.Open(dir, wopt)
	if err != nil {
		return nil, nil, err
	}

	// The tree is not wired yet, so the replay below restores the
	// checkpointed encodings instead of churning them: eager
	// expand-on-insert is off until NewGroup, and a replayed write
	// re-encodes its leaf in place instead of promoting it to Gapped.
	d := &durState{log: log, every: cfg.Dur.CheckpointEvery}
	var t *Tree
	if info.Checkpoint != nil {
		t, d.ckpt, err = treeFromCheckpoint(cfg.Tree, info.Checkpoint)
		if err != nil {
			log.Close()
			return nil, nil, err
		}
	} else {
		t = New(cfg.Tree)
	}
	t.cfg.ExpandOnInsert = false
	err = log.Replay(info.Barrier, func(lsn uint64, typ uint8, p []byte) error {
		switch typ {
		case wal.RecInsert:
			k, v, err := wal.DecodeInsert(p)
			if err != nil {
				return err
			}
			t.Insert(k, v)
			d.rec.Replayed++
		case wal.RecDelete:
			k, err := wal.DecodeDelete(p)
			if err != nil {
				return err
			}
			t.Delete(k)
			d.rec.Replayed++
		case wal.RecBatch:
			keys, vals, err := wal.DecodeBatch(p, nil, nil)
			if err != nil {
				return err
			}
			for i, k := range keys {
				t.Insert(k, vals[i])
			}
			d.rec.Replayed += len(keys)
		case wal.RecNoop:
			d.rec.Replayed++
		default:
			if !wal.RedoOptional(typ) {
				return fmt.Errorf("%w: unknown record type %d at LSN %d", wal.ErrCorrupt, typ, lsn)
			}
			d.rec.SkippedRedoOptional++
		}
		return nil
	})
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	d.rec.WarmStart = info.Checkpoint != nil
	d.rec.Barrier = info.Barrier
	d.rec.Segments = info.Segments
	d.rec.TornBytes = info.TornBytes
	d.rec.WallNs = time.Since(start).Nanoseconds()
	return t, d, nil
}

// attachDur makes a wired tree durable: its session writes log to d from
// now on, and a goroutine takes the automatic checkpoints.
func (a *Adaptive) attachDur(d *durState, o *obs.Observability, source string) {
	a.dur = d
	if o != nil {
		registerDurMetrics(o.Reg, source, d)
	}
	if d.every <= 0 {
		return
	}
	d.ckptCh = make(chan struct{}, 1)
	d.stopCh = make(chan struct{})
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for {
			select {
			case <-d.stopCh:
				return
			case <-d.ckptCh:
				if err := a.Checkpoint(); err != nil {
					d.ckptErrs.Add(1)
				}
			}
		}
	}()
}

// registerDurMetrics exposes the log and recovery counters as ahi_wal_*
// gauges, labelled like every other per-tree series.
func registerDurMetrics(reg *obs.Registry, source string, d *durState) {
	var lbl []obs.Label
	if source != "" {
		lbl = []obs.Label{{K: "source", V: source}}
	}
	st := d.log.Stats()
	for _, m := range []struct {
		name string
		f    func() int64
	}{
		{"ahi_wal_appends_total", st.Appends.Load},
		{"ahi_wal_appended_bytes_total", st.AppendedBytes.Load},
		{"ahi_wal_fsyncs_total", st.Fsyncs.Load},
		{"ahi_wal_fsync_ns_total", st.FsyncNsTotal.Load},
		{"ahi_wal_group_commits_total", st.GroupCommits.Load},
		{"ahi_wal_grouped_records_total", st.GroupedRecords.Load},
		{"ahi_wal_rotations_total", st.Rotations.Load},
		{"ahi_wal_checkpoints_total", st.Checkpoints.Load},
		{"ahi_wal_checkpoint_bytes", st.CheckpointBytes.Load},
		{"ahi_wal_segments_pruned_total", st.SegmentsPruned.Load},
		{"ahi_wal_checkpoint_errors_total", d.ckptErrs.Load},
		{"ahi_wal_recovered_segments", func() int64 { return int64(d.rec.Segments) }},
		{"ahi_wal_replayed_records", func() int64 { return int64(d.rec.Replayed) }},
		{"ahi_wal_redo_optional_skipped", func() int64 { return int64(d.rec.SkippedRedoOptional) }},
		{"ahi_wal_recovery_ns", func() int64 { return d.rec.WallNs }},
		{"ahi_wal_torn_bytes", func() int64 { return d.rec.TornBytes }},
		{"ahi_wal_barrier_lsn", func() int64 { return int64(d.rec.Barrier) }},
	} {
		reg.GaugeFunc(m.name, lbl, m.f)
	}
}

// RecoveryStats returns the stats captured when the tree was opened
// (zero value for a non-durable tree).
func (a *Adaptive) RecoveryStats() RecoveryStats {
	if a.dur == nil {
		return RecoveryStats{}
	}
	return a.dur.rec
}

// WALStats exposes the underlying log's counters (nil without durability).
func (a *Adaptive) WALStats() *wal.Stats {
	if a.dur == nil {
		return nil
	}
	return a.dur.log.Stats()
}

// SyncWAL forces an fsync of everything logged so far (any policy).
func (a *Adaptive) SyncWAL() error {
	if a.dur == nil {
		return nil
	}
	return a.dur.log.Sync()
}

// Checkpoint snapshots the tree (leaf encodings + adaptation state) and
// installs it as the recovery baseline, pruning log segments the
// snapshot supersedes. Safe to call concurrently with ops; concurrent
// checkpoints serialize. No-op without durability.
func (a *Adaptive) Checkpoint() error {
	d := a.dur
	if d == nil {
		return nil
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Cut the barrier: the exclusive lock waits out every in-flight
	// append+apply pair, so all records ≤ barrier are applied when the
	// snapshot walk below starts.
	d.mu.Lock()
	barrier := d.log.LastLSN()
	d.mu.Unlock()
	blob := a.encodeCheckpoint()
	return d.log.WriteCheckpoint(barrier, blob)
}

// close stops the checkpointer — honoring a checkpoint the threshold
// already promised but the goroutine had not picked up — and closes the
// log (final fsync, so SyncOS/SyncInterval lose nothing on clean exit).
func (d *durState) close(a *Adaptive) {
	if d.stopCh != nil {
		close(d.stopCh)
		d.wg.Wait()
		select {
		case <-d.ckptCh:
			if err := a.Checkpoint(); err != nil {
				d.ckptErrs.Add(1)
			}
		default:
		}
	}
	_ = d.log.Close()
}

// --- Checkpoint blob ----------------------------------------------------
//
// blob = [ver u8 | epoch u32 | skip u32 | sampleSize u32 | leaves u32]
// then per leaf [enc u8 | n u32 | n × (key u64, val u64)], leaves in key
// order, empty leaves omitted. Integrity is the wal checkpoint file's
// whole-file CRC; this layer only versions the schema.

const ckptBlobVersion = 1

type ckptState struct {
	epoch            uint32
	skip, sampleSize uint32
}

// encodeCheckpoint snapshots every leaf in one leaf walk. The walk sees a
// consistent-enough image: each leaf's keys are fixed in the image it
// loads, and any write racing the walk, an in-place overwrite included, is
// > barrier and will be replayed on recovery.
// It writes the images the walk itself followed (walkImages): one loaded
// here could predate a split the walk's link is already past, and the
// blob would hold the moved keys twice — recovery refuses it as corrupt.
func (a *Adaptive) encodeCheckpoint() []byte {
	t := a.Tree
	blob := make([]byte, 0, 1<<16)
	blob = append(blob, ckptBlobVersion)
	blob = binary.LittleEndian.AppendUint32(blob, a.Mgr.Epoch())
	blob = binary.LittleEndian.AppendUint32(blob, uint32(a.Mgr.SkipLength()))
	blob = binary.LittleEndian.AppendUint32(blob, uint32(a.Mgr.SampleSize()))
	countAt := len(blob)
	blob = append(blob, 0, 0, 0, 0)
	var leaves uint32
	var keys, vals []uint64
	t.walkImages(func(_ *Leaf, b *leafBox) bool {
		p := b.p
		keys, vals = p.appendAll(keys[:0], vals[:0])
		if len(keys) == 0 {
			return true
		}
		leaves++
		blob = append(blob, byte(p.encoding()))
		blob = binary.LittleEndian.AppendUint32(blob, uint32(len(keys)))
		for i, k := range keys {
			blob = binary.LittleEndian.AppendUint64(blob, k)
			blob = binary.LittleEndian.AppendUint64(blob, vals[i])
		}
		return true
	})
	binary.LittleEndian.PutUint32(blob[countAt:], leaves)
	return blob
}

// treeFromCheckpoint rebuilds a tree from a checkpoint blob, giving each
// leaf back its recorded encoding — the warm state the adaptation
// manager had learned — instead of the cold default.
func treeFromCheckpoint(cfg Config, blob []byte) (*Tree, ckptState, error) {
	var cs ckptState
	if len(blob) < 17 {
		return nil, cs, fmt.Errorf("%w: checkpoint blob %d bytes", wal.ErrCorrupt, len(blob))
	}
	if blob[0] != ckptBlobVersion {
		return nil, cs, fmt.Errorf("%w: checkpoint blob version %d", wal.ErrCorrupt, blob[0])
	}
	cs.epoch = binary.LittleEndian.Uint32(blob[1:])
	cs.skip = binary.LittleEndian.Uint32(blob[5:])
	cs.sampleSize = binary.LittleEndian.Uint32(blob[9:])
	nLeaves := binary.LittleEndian.Uint32(blob[13:])
	blob = blob[17:]

	if cfg.Occupancy <= 0 || cfg.Occupancy > 1 {
		cfg.Occupancy = 0.70
	}
	if nLeaves == 0 {
		return New(cfg), cs, nil
	}
	t := &Tree{cfg: cfg}
	leaves := make([]*Leaf, 0, nLeaves)
	var seps []uint64
	total := 0
	var prevLast uint64
	for li := uint32(0); li < nLeaves; li++ {
		if len(blob) < 5 {
			return nil, cs, fmt.Errorf("%w: checkpoint blob truncated at leaf %d", wal.ErrCorrupt, li)
		}
		enc := core.Encoding(blob[0])
		if enc > EncGapped {
			return nil, cs, fmt.Errorf("%w: checkpoint leaf %d encoding %d", wal.ErrCorrupt, li, enc)
		}
		n := int(binary.LittleEndian.Uint32(blob[1:]))
		blob = blob[5:]
		if n == 0 || n > LeafCap || len(blob) < 16*n {
			return nil, cs, fmt.Errorf("%w: checkpoint leaf %d holds %d keys with %d bytes left",
				wal.ErrCorrupt, li, n, len(blob))
		}
		keys := make([]uint64, n)
		vals := make([]uint64, n)
		for i := 0; i < n; i++ {
			keys[i] = binary.LittleEndian.Uint64(blob[16*i:])
			vals[i] = binary.LittleEndian.Uint64(blob[16*i+8:])
		}
		blob = blob[16*n:]
		for i := 1; i < n; i++ {
			if keys[i] <= keys[i-1] {
				return nil, cs, fmt.Errorf("%w: checkpoint leaf %d keys out of order", wal.ErrCorrupt, li)
			}
		}
		if li > 0 && keys[0] <= prevLast {
			return nil, cs, fmt.Errorf("%w: checkpoint leaves overlap at leaf %d", wal.ErrCorrupt, li)
		}
		prevLast = keys[n-1]
		leaves = append(leaves, t.newLeaf(encodePayload(enc, keys, vals), nil, 0, false))
		if li > 0 {
			seps = append(seps, keys[0])
		}
		total += n
	}
	if len(blob) != 0 {
		return nil, cs, fmt.Errorf("%w: %d trailing bytes after checkpoint leaves", wal.ErrCorrupt, len(blob))
	}
	t.keyCount.Store(int64(total))
	t.assemble(leaves, seps)
	return t, cs, nil
}

// --- The WAL bracket of a session write -------------------------------
//
// Insert, Delete and InsertBatch log through this one pair: begin appends
// the record under the shared checkpoint barrier, the caller applies the
// write to the tree, commit drops the barrier and waits for the log's
// commit point before the write is acked.

// begin takes the barrier shared and appends one record.
func (d *durState) begin(typ uint8, payload []byte) uint64 {
	d.mu.RLock()
	lsn, err := d.log.Append(typ, payload)
	if err != nil {
		d.mu.RUnlock()
		walPanic("append", err)
	}
	return lsn
}

// commit releases the barrier begin took, waits until lsn is committed and
// counts the records toward the next automatic checkpoint. A traced write
// gets the commit wait — that and nothing after it, whatever the caller
// does next — as its event's FsyncWaitNs.
func (d *durState) commit(lsn uint64, records int64, ev *obs.OpEvent) {
	d.mu.RUnlock()
	var start time.Time // read only when traced, so only then taken
	if ev != nil {
		start = time.Now()
	}
	if err := d.log.Commit(lsn); err != nil {
		walPanic("commit", err)
	}
	if ev != nil {
		ev.FsyncWaitNs = time.Since(start).Nanoseconds()
	}
	d.noteRecords(records)
}
