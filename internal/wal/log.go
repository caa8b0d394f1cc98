package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stats are the log's lifetime counters, exposed to the obs layer as
// ahi_wal_* gauges by the durable index wiring.
type Stats struct {
	Appends         atomic.Int64 // records appended
	AppendedBytes   atomic.Int64 // framed bytes appended
	Writes          atomic.Int64 // flushes of the commit buffer into the segment
	Fsyncs          atomic.Int64 // fsync syscalls issued
	FsyncNsTotal    atomic.Int64 // cumulative fsync wall time
	GroupCommits    atomic.Int64 // commit groups acked (SyncAlways)
	GroupedRecords  atomic.Int64 // records acked across those groups
	Rotations       atomic.Int64 // segment rotations
	Checkpoints     atomic.Int64 // checkpoints written
	CheckpointBytes atomic.Int64 // last checkpoint blob size
	SegmentsPruned  atomic.Int64 // segments deleted by checkpoints
}

// RecoveryInfo summarizes what Open found on disk.
type RecoveryInfo struct {
	// Barrier is the newest valid checkpoint's barrier LSN (0: none).
	Barrier uint64
	// Checkpoint is that checkpoint's blob (nil: cold start).
	Checkpoint []byte
	// Segments and Records count the scanned log (records includes those
	// the checkpoint already covers).
	Segments int
	Records  int
	// TornBytes is how much invalid tail was truncated from the last
	// segment (torn/partial writes of a crashed writer), up to its last
	// non-zero byte: the zero-filled rest of a preallocated segment is not
	// counted.
	TornBytes int64
	// BadCheckpoints counts checkpoint files rejected by validation
	// before a valid one (or none) was found.
	BadCheckpoints int
}

type segMeta struct {
	path     string
	seq      uint64
	firstLSN uint64
	records  int
	// dataBytes is the valid byte length (post-truncation).
	dataBytes int64
}

func (s segMeta) end() uint64 { return s.firstLSN + uint64(s.records) }

// Log is a segmented write-ahead log. Append buffers a record and
// assigns its LSN; Commit makes everything up to an LSN durable per the
// configured policy and blocks until that point is reached (group
// commit: concurrent SyncAlways committers share one fsync). All
// methods are safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	cond     *sync.Cond
	f        *os.File
	mm       []byte    // the active segment's shared mapping (nil: not mapped)
	sealed   []segMeta // read-only segments, oldest first
	active   segMeta
	buf      []byte
	bufFirst uint64 // LSN of buf's first record
	nextLSN  uint64 // next LSN to assign
	written  uint64 // highest LSN stored in the OS page cache
	synced   atomic.Uint64
	syncing  bool // an fsync is in flight outside mu
	closed   bool
	sticky   error // first I/O error; the log refuses work after it

	stopIntv chan struct{}
	wg       sync.WaitGroup
	stats    Stats
}

// Open opens (creating if needed) the log in dir: loads the newest valid
// checkpoint, scans the segments, truncates a torn tail, and positions
// the log for appending. Call Replay before the first Append to feed the
// tail into the index.
func Open(dir string, opt Options) (*Log, *RecoveryInfo, error) {
	opt.setDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	clearTemp(dir)
	info := &RecoveryInfo{}
	if err := loadCheckpointInfo(dir, info); err != nil {
		return nil, nil, err
	}
	l := &Log{dir: dir, opt: opt}
	l.cond = sync.NewCond(&l.mu)
	if err := l.scanSegments(info); err != nil {
		return nil, nil, err
	}
	if info.Barrier+1 > l.nextLSN {
		// The checkpoint outran the surviving log (an unsynced tail below
		// the barrier was torn off). Jump the LSN cursor past the barrier
		// so new records are never mistaken for checkpoint-covered ones;
		// the jump forces a fresh segment whose firstLSN documents the gap.
		l.nextLSN = info.Barrier + 1
		if err := l.sealActiveLocked(); err != nil {
			return nil, nil, err
		}
	}
	if l.f == nil {
		if err := l.createSegmentLocked(); err != nil {
			return nil, nil, err
		}
	}
	l.written = l.nextLSN - 1
	l.synced.Store(l.nextLSN - 1)
	if opt.Policy == SyncInterval {
		l.stopIntv = make(chan struct{})
		l.wg.Add(1)
		go l.intervalSyncer()
	}
	return l, info, nil
}

// Dir returns the log's directory.
func (l *Log) Dir() string { return l.dir }

// Stats exposes the log's counters.
func (l *Log) Stats() *Stats { return &l.stats }

// LastLSN returns the highest assigned LSN (0: empty log).
func (l *Log) LastLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// DurableLSN returns the highest LSN known durable per the policy's
// strongest guarantee (fsynced).
func (l *Log) DurableLSN() uint64 { return l.synced.Load() }

// Append frames one record into the commit buffer and returns its LSN.
// The record is not durable — not even in the segment — until a Commit
// covering the LSN returns (or, for RecAdapt-style fire-and-forget
// records, until some later commit or sync flushes it).
func (l *Log) Append(typ uint8, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return 0, err
	}
	if len(l.buf) == 0 {
		l.bufFirst = l.nextLSN
	}
	before := len(l.buf)
	l.buf = AppendFrame(l.buf, typ, payload)
	lsn := l.nextLSN
	l.nextLSN++
	l.stats.Appends.Add(1)
	l.stats.AppendedBytes.Add(int64(len(l.buf) - before))
	return lsn, nil
}

func (l *Log) usableLocked() error {
	if l.closed {
		return os.ErrClosed
	}
	return l.sticky
}

// Commit makes the log durable up to lsn per the policy and blocks until
// that durability point is reached: stored in the OS page cache for
// SyncOS and SyncInterval, fsynced for SyncAlways.
func (l *Log) Commit(lsn uint64) error {
	if l.opt.Policy != SyncAlways {
		l.mu.Lock()
		defer l.mu.Unlock()
		if err := l.usableLocked(); err != nil {
			return err
		}
		if l.written >= lsn {
			return nil
		}
		return l.flushLocked()
	}
	// Group commit: the first committer to find no fsync in flight
	// becomes the leader — it flushes the whole buffer (its own record
	// plus everything buffered since the last group) and fsyncs outside
	// the lock, so followers keep appending into the next group while the
	// disk works. Followers wait; the leader's broadcast releases every
	// committer whose LSN the group covered.
	l.mu.Lock()
	for l.synced.Load() < lsn {
		if err := l.usableLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		target := l.written
		f := l.f
		l.syncing = true
		l.mu.Unlock()

		crashPoint("pre-fsync")
		start := time.Now()
		serr := f.Sync()
		el := time.Since(start).Nanoseconds()
		crashPoint("post-fsync")
		l.stats.Fsyncs.Add(1)
		l.stats.FsyncNsTotal.Add(el)
		if l.opt.ObserveFsyncNs != nil {
			l.opt.ObserveFsyncNs(el)
		}

		l.mu.Lock()
		l.syncing = false
		if serr != nil {
			l.sticky = serr
			l.cond.Broadcast()
			l.mu.Unlock()
			return serr
		}
		prev := l.synced.Load()
		l.synced.Store(target)
		l.stats.GroupCommits.Add(1)
		l.stats.GroupedRecords.Add(int64(target - prev))
		if l.opt.ObserveGroupN != nil {
			l.opt.ObserveGroupN(int64(target - prev))
		}
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	return nil
}

// AppendCommit is Append followed by Commit.
func (l *Log) AppendCommit(typ uint8, payload []byte) (uint64, error) {
	lsn, err := l.Append(typ, payload)
	if err != nil {
		return 0, err
	}
	return lsn, l.Commit(lsn)
}

// Sync forces an fsync of everything appended so far regardless of
// policy (interval ticks, Close, and checkpoint boundaries use it).
func (l *Log) Sync() error {
	l.mu.Lock()
	for l.syncing {
		if err := l.usableLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
		l.cond.Wait()
	}
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if err := l.flushLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	target := l.written
	if l.synced.Load() >= target {
		l.mu.Unlock()
		return nil
	}
	f := l.f
	l.syncing = true
	l.mu.Unlock()

	crashPoint("pre-fsync")
	start := time.Now()
	serr := f.Sync()
	el := time.Since(start).Nanoseconds()
	crashPoint("post-fsync")
	l.stats.Fsyncs.Add(1)
	l.stats.FsyncNsTotal.Add(el)
	if l.opt.ObserveFsyncNs != nil {
		l.opt.ObserveFsyncNs(el)
	}

	l.mu.Lock()
	l.syncing = false
	if serr != nil {
		l.sticky = serr
	} else if l.synced.Load() < target {
		l.synced.Store(target)
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return serr
}

func (l *Log) intervalSyncer() {
	defer l.wg.Done()
	t := time.NewTicker(l.opt.Interval)
	defer t.Stop()
	for {
		select {
		case <-l.stopIntv:
			return
		case <-t.C:
			l.mu.Lock()
			dirty := l.written > l.synced.Load() || len(l.buf) > 0
			l.mu.Unlock()
			if dirty {
				_ = l.Sync()
			}
		}
	}
}

// flushLocked stores the buffered frames in the active segment, rotating
// first when the segment is full; a flush larger than a whole segment
// goes into a fresh one, which grows to hold it. Callers hold mu.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if l.active.dataBytes > segHdrLen && l.active.dataBytes+int64(len(l.buf)) > l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return err
		}
	}
	crashPoint("pre-write")
	err := l.storeLocked(l.buf)
	l.stats.Writes.Add(1)
	crashPoint("post-write")
	if err != nil {
		l.sticky = err
		return err
	}
	l.active.dataBytes += int64(len(l.buf))
	l.active.records += int(l.nextLSN - l.bufFirst)
	l.written = l.nextLSN - 1
	l.buf = l.buf[:0]
	return nil
}

// rotateLocked seals the active segment (cut to its frames and fsynced,
// so sealed segments are always fully durable) and opens the next one.
// The buffer's first LSN becomes the new segment's firstLSN.
func (l *Log) rotateLocked() error {
	for l.syncing {
		l.cond.Wait()
	}
	if err := l.sealActiveLocked(); err != nil {
		return err
	}
	l.stats.Rotations.Add(1)
	return l.createSegmentLocked()
}

// sealActiveLocked closes the active segment for good. Its file is cut
// to its frames before the fsync, so that no sealed segment on disk ends
// in the zero tail of a preallocated file, not even after a power cut: a
// zero tail is torn data only in the last segment.
func (l *Log) sealActiveLocked() error {
	if l.f == nil {
		return nil
	}
	if err := l.releaseLocked(); err != nil {
		l.sticky = err
		return err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		l.sticky = err
		return err
	}
	l.stats.Fsyncs.Add(1)
	l.stats.FsyncNsTotal.Add(time.Since(start).Nanoseconds())
	if err := l.f.Close(); err != nil {
		l.sticky = err
		return err
	}
	if s := l.synced.Load(); s < l.written {
		l.synced.Store(l.written)
	}
	l.sealed = append(l.sealed, l.active)
	l.f = nil
	return nil
}

func segName(seq uint64) string { return fmt.Sprintf("wal-%08d.seg", seq) }

func ckptName(barrier uint64) string { return fmt.Sprintf("ckpt-%016x.snap", barrier) }

// createSegmentLocked creates the next segment. Its firstLSN is the
// pending buffer's first LSN when rotation races appends, else nextLSN.
func (l *Log) createSegmentLocked() error {
	crashPoint("seg-create")
	first := l.nextLSN
	if len(l.buf) > 0 {
		first = l.bufFirst
	}
	seq := l.active.seq + 1
	if l.f == nil && len(l.sealed) > 0 {
		seq = l.sealed[len(l.sealed)-1].seq + 1
	}
	if seq == 0 {
		seq = 1
	}
	path := filepath.Join(l.dir, segName(seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		l.sticky = err
		return err
	}
	hdr := make([]byte, segHdrLen)
	binary.LittleEndian.PutUint64(hdr, segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], segVersion)
	binary.LittleEndian.PutUint64(hdr[16:], first)
	binary.LittleEndian.PutUint32(hdr[24:], crc32.Checksum(hdr[:24], castagnoli))
	if _, err := writeMaybeTorn(f, hdr); err != nil {
		f.Close()
		l.sticky = err
		return err
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		l.sticky = err
		return err
	}
	l.f = f
	l.active = segMeta{path: path, seq: seq, firstLSN: first, dataBytes: segHdrLen}
	return nil
}

// Close flushes and fsyncs outstanding records, seals the active segment
// and closes the log.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	if l.stopIntv != nil {
		close(l.stopIntv)
	}
	l.mu.Unlock()
	l.wg.Wait()
	err := l.Sync()
	l.mu.Lock()
	l.closed = true
	for l.syncing { // a group-commit leader still fsyncs the segment
		l.cond.Wait()
	}
	if err == nil {
		err = l.sealActiveLocked()
	}
	if l.f != nil { // an error left the segment open
		_ = l.releaseLocked()
		_ = l.f.Close()
		l.f = nil
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}

// --- Open-time scanning -------------------------------------------------

func clearTemp(dir string) {
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".tmp") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// scanSegments validates every segment, truncates a torn tail (and a
// preallocated zero tail) off the last one, and leaves the log positioned
// for appending (active segment opened, nextLSN set; it is mapped on its
// first flush).
func (l *Log) scanSegments(info *RecoveryInfo) error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var metas []segMeta
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".seg"), 10, 64)
		if err != nil {
			continue
		}
		metas = append(metas, segMeta{path: filepath.Join(l.dir, name), seq: seq})
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].seq < metas[j].seq })
	l.nextLSN = 1
	for i := range metas {
		last := i == len(metas)-1
		m, torn, err := scanSegment(metas[i].path, metas[i].seq, last)
		if err != nil {
			return err
		}
		info.TornBytes += torn
		if m == nil {
			// Torn segment creation: the header never fully landed. Only
			// legal on the last segment (scanSegment errors otherwise).
			if err := os.Remove(metas[i].path); err != nil {
				return err
			}
			continue
		}
		if len(l.sealed) > 0 {
			prev := l.sealed[len(l.sealed)-1]
			if m.firstLSN < prev.end() {
				return fmt.Errorf("%w: segment %s firstLSN %d overlaps previous end %d",
					ErrCorrupt, m.path, m.firstLSN, prev.end())
			}
		}
		info.Segments++
		info.Records += m.records
		l.sealed = append(l.sealed, *m)
		l.nextLSN = m.end()
	}
	// Reopen the last surviving segment as the active one.
	if n := len(l.sealed); n > 0 {
		l.active = l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(l.active.path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		if err := f.Truncate(l.active.dataBytes); err != nil {
			f.Close()
			return err
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return err
		}
		l.f = f
	}
	return nil
}

// scanSegment walks one segment's frames. For the last segment, the
// first invalid frame marks the torn tail: the meta's dataBytes stops
// there and torn reports the dropped bytes up to the last non-zero one
// (the caller truncates) — an all-zero remainder is the unused part of a
// preallocated segment, not torn data. For earlier segments an invalid
// frame is hard corruption, a zero tail included: sealing cuts it off.
// A last segment whose header is short or invalid returns
// (nil, size, nil): the creation itself was torn.
func scanSegment(path string, seq uint64, last bool) (*segMeta, int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	if len(b) < segHdrLen ||
		binary.LittleEndian.Uint64(b) != segMagic ||
		binary.LittleEndian.Uint32(b[24:]) != crc32.Checksum(b[:24], castagnoli) {
		if last {
			return nil, int64(len(b)), nil
		}
		return nil, 0, fmt.Errorf("%w: segment %s has an invalid header", ErrCorrupt, path)
	}
	if v := binary.LittleEndian.Uint64(b[8:]); v != segVersion {
		return nil, 0, fmt.Errorf("%w: segment %s has unsupported version %d", ErrCorrupt, path, v)
	}
	m := &segMeta{path: path, seq: seq, firstLSN: binary.LittleEndian.Uint64(b[16:]), dataBytes: segHdrLen}
	off := segHdrLen
	for off < len(b) {
		_, _, size, err := DecodeFrame(b[off:])
		if err != nil {
			if last {
				return m, int64(len(bytes.TrimRight(b[off:], "\x00"))), nil
			}
			return nil, 0, fmt.Errorf("%w: segment %s record %d at offset %d: %v",
				ErrCorrupt, path, m.records, off, err)
		}
		off += size
		m.records++
		m.dataBytes = int64(off)
	}
	return m, 0, nil
}

// Replay streams every record with LSN > barrier to fn, in LSN order.
// Call it after Open and before the first Append; fn receives the
// record's LSN, type and payload (the payload aliases a per-segment
// buffer and must not be retained).
func (l *Log) Replay(barrier uint64, fn func(lsn uint64, typ uint8, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]segMeta(nil), l.sealed...)
	if l.f != nil {
		segs = append(segs, l.active)
	}
	l.mu.Unlock()
	for _, m := range segs {
		if m.end() <= barrier+1 {
			continue // fully covered by the checkpoint
		}
		b, err := os.ReadFile(m.path)
		if err != nil {
			return err
		}
		if int64(len(b)) > m.dataBytes {
			b = b[:m.dataBytes]
		}
		off := segHdrLen
		lsn := m.firstLSN
		for off < len(b) {
			typ, payload, size, err := DecodeFrame(b[off:])
			if err != nil {
				return fmt.Errorf("replaying %s at offset %d: %w", m.path, off, err)
			}
			if lsn > barrier {
				if err := fn(lsn, typ, payload); err != nil {
					return err
				}
			}
			off += size
			lsn++
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
