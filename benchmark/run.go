package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"ahi"
	"ahi/internal/dataset"
)

// config is everything the command line decides for one run.
type config struct {
	Seed int64
	// Seconds sizes the measured window: spec.opsPerSecond × Seconds ops.
	Seconds float64
	Trace   bool
	OutDir  string
	WalDir  string
	// Scale shrinks data set, warm-up, streams and window together. The
	// command always runs at 1; the tests run at 1/100.
	Scale float64
	// corrupt plants one wrong value under the hottest key (tests only).
	corrupt bool
}

const (
	baseKeys      = 4_000_000
	cacheFraction = 0.10
	shardCount    = 4
)

// The values the benchmark stores are a function of (key, write sequence)
// that a reader can check from the pair alone: a tag of 8 check bits of the
// key above the low 20 bits of the sequence, added to the key itself on the
// wide-value data set. So the timed loop validates every result without
// touching the oracle's memory.
const (
	seqBits  = 20
	tagShift = seqBits
	tagLimit = seqBits + 8
)

func keyTag(k uint64) uint64 { return (k * 0x9E3779B97F4A7C15) >> 56 }

func (w *world) value(k, seq uint64) uint64 {
	return k&w.valMask + (keyTag(k)<<tagShift | seq&(1<<seqBits-1))
}

func (w *world) valid(k, v uint64) bool {
	d := v - k&w.valMask
	return d>>tagLimit == 0 && d>>tagShift == keyTag(k)
}

// world is one workload instance: the data set, the index under test and
// the oracle's bookkeeping.
type world struct {
	spec    *spec
	cfg     config
	nproc   int
	clients int

	keys, vals []uint64
	valMask    uint64

	succinctBytes, gappedBytes, budget int64

	// fresh is the ring of churn keys (none of them in the data set);
	// freshVal[i] is the value the live insert of fresh[i] wrote.
	fresh, freshVal []uint64
	freshLive       int

	tree    *ahi.BTree
	sharded *ahi.ShardedBTree
	walDir  string
	ownsWal bool
	walFS   string
}

func scaled(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

func newWorld(s *spec, cfg config) *world {
	nproc := runtime.NumCPU()
	w := &world{spec: s, cfg: cfg, nproc: nproc, clients: s.clients(nproc)}
	if s.wideVals {
		w.valMask = ^uint64(0)
	}
	w.freshLive = scaled(freshLiveBase, cfg.Scale)
	return w
}

// genData draws the data set and its initial values (sequence 0).
func (w *world) genData() {
	n := scaled(baseKeys, w.cfg.Scale)
	if n < 4096 {
		n = 4096
	}
	if w.spec.dataset == "userids" {
		w.keys = dataset.UserIDs(n, w.cfg.Seed)
	} else {
		w.keys = dataset.YCSBKeys(n, w.cfg.Seed)
	}
	w.vals = make([]uint64, len(w.keys))
	for i, k := range w.keys {
		w.vals[i] = w.value(k, 0)
	}
	if w.cfg.corrupt {
		w.vals[0] += 1 << tagShift
	}
}

// options leaves every sampling knob at the paper's default.
func (w *world) options() ahi.BTreeOptions {
	return ahi.BTreeOptions{MemoryBudget: w.budget, CacheFraction: cacheFraction}
}

// build sizes the memory budget from two plain bulk loads — a quarter of
// the way from all-Succinct to all-Gapped, so the budget binds — and then
// builds or opens the index the workload serves from.
func (w *world) build() error {
	w.succinctBytes = ahi.BulkLoadPlainBTree(ahi.EncSuccinct, w.keys, w.vals).Bytes()
	w.gappedBytes = ahi.BulkLoadPlainBTree(ahi.EncGapped, w.keys, w.vals).Bytes()
	w.budget = w.succinctBytes + (w.gappedBytes-w.succinctBytes)/4
	opts := w.options()
	switch w.spec.index {
	case singleTree:
		w.tree = ahi.BulkLoadBTree(opts, w.keys, w.vals)
	case durableTree:
		if err := w.makeWalDir(); err != nil {
			return err
		}
		t, err := w.openDurable()
		if err != nil {
			return err
		}
		w.tree = t
		s := t.NewSession()
		const chunk = 1 << 16
		inserted := make([]bool, chunk)
		for i := 0; i < len(w.keys); i += chunk {
			j := min(i+chunk, len(w.keys))
			s.InsertBatch(w.keys[i:j], w.vals[i:j], inserted[:j-i])
		}
		if err := t.Checkpoint(); err != nil {
			return fmt.Errorf("checkpoint after load: %w", err)
		}
	case shardedTree:
		// A monitored deployment: metrics registry and the 1-in-64
		// flight recorder are on for the whole run.
		opts.Shards = shardCount
		opts.Workers = w.nproc
		opts.AsyncMigrations = true
		opts.Obs = ahi.NewObservability()
		opts.Tracing = &ahi.TracingConfig{SampleEvery: 64}
		w.sharded = ahi.BulkLoadShardedBTree(opts, w.keys, w.vals)
	}
	return nil
}

func (w *world) durability() *ahi.DurabilityOptions {
	return &ahi.DurabilityOptions{
		Dir:             w.walDir,
		SyncPolicy:      ahi.SyncInterval,
		SyncInterval:    5 * time.Millisecond,
		CheckpointEvery: 1 << 20,
	}
}

func (w *world) openDurable() (*ahi.BTree, error) {
	opts := w.options()
	opts.Durability = w.durability()
	t, _, err := ahi.OpenBTree(opts)
	if err != nil {
		return nil, fmt.Errorf("open durable tree in %s: %w", w.walDir, err)
	}
	return t, nil
}

func (w *world) makeWalDir() error {
	parent := w.cfg.WalDir
	if parent == "" {
		parent = w.cfg.OutDir
	}
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(parent, "wal-")
	if err != nil {
		return err
	}
	w.walDir, w.ownsWal = dir, true
	w.walFS = fsType(dir)
	return nil
}

// teardown closes the index and removes its log directory.
func (w *world) teardown() {
	if w.tree != nil {
		w.tree.Close()
		w.tree = nil
	}
	if w.sharded != nil {
		w.sharded.Close()
		w.sharded = nil
	}
	if w.ownsWal {
		os.RemoveAll(w.walDir)
		w.ownsWal = false
	}
}

// trees lists the adaptive trees behind the index (one, or one per shard).
func (w *world) trees() []*ahi.BTree {
	if w.sharded == nil {
		return []*ahi.BTree{w.tree}
	}
	ts := make([]*ahi.BTree, w.sharded.Shards())
	for i := range ts {
		ts[i] = w.sharded.Shard(i)
	}
	return ts
}

func (w *world) indexLen() int {
	n := 0
	for _, t := range w.trees() {
		n += t.Tree.Len()
	}
	return n
}

// genFresh fills the churn ring with keys two above every second data-set
// key from the middle of the key space on (wrapping), skipping keys whose
// successor is less than three away. So no fresh key is in the data set,
// equals an absent-lookup key (one above a data-set key) or repeats within
// the ring, and the live fresh keys sit in one slowly advancing region —
// arrival order, as registrations or timestamps come — where leaves take
// enough inserts to split and enough deletes to merge, while the rest of
// the index stays cold.
func (w *world) genFresh() {
	span := len(w.keys) - 1
	size := min(4*w.freshLive, span/4)
	w.fresh = make([]uint64, 0, size)
	pos := span/2 + int(uint64(w.cfg.Seed)*7919%uint64(span/64+1))
	for steps := 0; len(w.fresh) < size && steps < span/2; steps++ {
		pos %= span
		if w.keys[pos+1]-w.keys[pos] >= 3 {
			w.fresh = append(w.fresh, w.keys[pos]+2)
		}
		pos += 2
	}
	w.freshVal = make([]uint64, len(w.fresh))
	w.freshLive = min(w.freshLive, len(w.fresh)/2)
}

// stream is one pre-generated call sequence and how far a client got in it.
type stream struct {
	ops []entry
	// seqBase is the client's sequence number at the stream's first
	// entry; executed counts entries consumed, wrap-arounds included.
	seqBase  uint64
	executed uint64
}

// batcher is the batched write/read surface; a ShardedBTree and a Session
// both have it.
type batcher interface {
	LookupBatch(keys, vals []uint64, found []bool)
	InsertBatch(keys, vals []uint64, inserted []bool)
}

// client is one closed-loop caller: it issues the next call only when the
// previous one returned.
type client struct {
	w       *world
	id      int
	ses     *ahi.BTreeSession // single and durable trees
	batch   batcher           // the sharded front
	streams []*stream

	cur  *stream
	pos  int
	base uint64 // sequence number of cur.ops[0] in the current pass

	// Churn state: ring positions inserted and deleted so far.
	ins, del uint64

	reqs      [scanBatchReqs]ahi.ScanReq
	scan      ahi.ScanBuffer
	bk, bv    []uint64
	bf        []bool
	ops       int64 // ops completed (one key or one scan request each)
	calls     int64
	writes    int64 // Insert calls that logged a pair (overwrites and churn inserts)
	failed    int64
	scanPairs int64
	// warmScanPairs is scanPairs at the end of the warm-up.
	warmScanPairs int64
	// backlogMax is the deepest migration backlog client 0 saw when it
	// polled (traced runs only, every 64th call).
	backlogMax int

	read, write *hist
	tr          *tracer
	segSpan     int32
	// traced/untraced throughput of the interleaved A/B blocks of a
	// traced run: [0] spans off, [1] spans on.
	abOps [2]int64
	abNs  [2]int64
}

func (c *client) use(s *stream, seqBase uint64) {
	c.cur, c.pos, c.base = s, 0, seqBase
	s.seqBase = seqBase
}

// nextSeq is the sequence number after everything executed so far.
func (c *client) nextSeq() uint64 { return c.cur.seqBase + c.cur.executed }

// exec issues the call at the stream position, checks its result, advances
// past it and returns its kind.
func (c *client) exec() (kind uint8) {
	s := c.cur
	e := &s.ops[c.pos]
	seq := c.base + uint64(c.pos)
	w := c.w
	kind = e.kind
	g := 1
	switch kind {
	case opLookup:
		v, ok := c.ses.Lookup(e.key)
		if !ok || !w.valid(e.key, v) {
			c.failed++
		}
		c.ops++
	case opLookupAbsent:
		if _, ok := c.ses.Lookup(e.key); ok {
			c.failed++
		}
		c.ops++
	case opOverwrite:
		if c.ses.Insert(e.key, w.value(e.key, seq)) {
			c.failed++ // the key was there: Insert must report an overwrite
		}
		c.writes++
		c.ops++
	case opChurn:
		c.churn(seq)
		c.ops++
	case opScanBatch:
		g = scanBatchReqs
		c.execScan(s.ops[c.pos : c.pos+g])
		c.ops += scanBatchReqs
	case opLookupBatch:
		g = batchKeys
		for i, b := range s.ops[c.pos : c.pos+g] {
			c.bk[i] = b.key
		}
		c.batch.LookupBatch(c.bk, c.bv, c.bf)
		for i, k := range c.bk {
			if !c.bf[i] || !w.valid(k, c.bv[i]) {
				c.failed++
			}
		}
		c.ops += batchKeys
	case opInsertBatch:
		g = batchKeys
		for i, b := range s.ops[c.pos : c.pos+g] {
			c.bk[i] = b.key
			c.bv[i] = w.value(b.key, seq+uint64(i))
		}
		c.batch.InsertBatch(c.bk, c.bv, c.bf)
		for _, inserted := range c.bf {
			if inserted {
				c.failed++
			}
		}
		c.ops += batchKeys
	}
	c.calls++
	c.pos += g
	s.executed += uint64(g)
	if c.pos >= len(s.ops) {
		c.pos = 0
		c.base += uint64(len(s.ops))
	}
	return kind
}

// churn deletes the oldest live fresh key when freshLive of them are live
// and inserts the next one otherwise, so the index neither grows nor
// shrinks over the window.
func (c *client) churn(seq uint64) {
	w := c.w
	ring := uint64(len(w.fresh))
	if live := c.ins - c.del; live >= uint64(w.freshLive) {
		k := w.fresh[c.del%ring]
		c.del++
		if !c.ses.Delete(k) {
			c.failed++
		}
		return
	}
	slot := c.ins % ring
	k := w.fresh[slot]
	v := w.value(k, seq)
	w.freshVal[slot] = v
	c.ins++
	c.writes++
	if !c.ses.Insert(k, v) {
		c.failed++
	}
}

// execScan issues one ScanBatch and checks each request's result from the
// buffer alone: full length, starts at or after From, ascends, and the
// first and last pair carry their own key's tag. The post-window sweep
// checks every pair of the tree against the oracle.
func (c *client) execScan(es []entry) {
	for i := range es {
		c.reqs[i] = ahi.ScanReq{From: es[i].key, N: int(es[i].n)}
	}
	c.scan.Reset(len(es))
	c.scanPairs += int64(c.ses.ScanBatch(c.reqs[:len(es)], &c.scan))
	w := c.w
	for i := range es {
		ks, vs := c.scan.Keys(i), c.scan.Vals(i)
		n := len(ks)
		if n == 0 || n != int(es[i].n) || ks[0] < es[i].key || (n > 1 && ks[n-1] <= ks[0]) ||
			!w.valid(ks[0], vs[0]) || !w.valid(ks[n-1], vs[n-1]) {
			c.failed++
		}
	}
}

// abBlock is the number of calls between flips of span recording in a
// traced run.
const abBlock = 1024

// run drives the client until it has completed ops more ops. Every
// stride-th call is timed.
func (c *client) run(ops int64) {
	stride := c.w.spec.stride
	target := c.ops + ops
	tracing := c.tr != nil
	spans := tracing
	blockStart, blockOps, blockCalls := time.Now(), c.ops, c.calls
	for {
		for j := 1; j < stride; j++ {
			c.exec()
		}
		op := c.nextSeq()
		t0 := time.Now()
		kind := c.exec()
		t1 := time.Now()
		d := t1.Sub(t0).Nanoseconds()
		if isWrite(kind) {
			c.write.add(d)
		} else {
			c.read.add(d)
		}
		if tracing {
			if c.calls&63 == 0 {
				if spans {
					c.tr.call(c.segSpan, kind, op, t0, t1)
				}
				if c.id == 0 {
					c.backlogMax = max(c.backlogMax, c.w.backlog())
				}
			}
			if c.calls-blockCalls >= abBlock {
				b := 0
				if spans {
					b = 1
				}
				c.abOps[b] += c.ops - blockOps
				c.abNs[b] += t1.Sub(blockStart).Nanoseconds()
				spans = !spans
				blockStart, blockOps, blockCalls = t1, c.ops, c.calls
			}
		}
		if c.ops >= target {
			return
		}
	}
}

// segmentStat is what one segment of the window measured.
type segmentStat struct {
	Ops          int64   `json:"ops"`
	Seconds      float64 `json:"seconds"`
	OpsPerS      float64 `json:"ops_per_s"`
	ReadP50      float64 `json:"read_p50_ns"`
	ReadP99      float64 `json:"read_p99_ns"`
	ReadP999     float64 `json:"read_p999_ns"`
	ReadMax      float64 `json:"read_max_ns"`
	ReadSamples  uint64  `json:"read_samples"`
	WriteP50     float64 `json:"write_p50_ns"`
	WriteP99     float64 `json:"write_p99_ns"`
	WriteP999    float64 `json:"write_p999_ns"`
	WriteMax     float64 `json:"write_max_ns"`
	WriteSamples uint64  `json:"write_samples"`
	Migrations   int64   `json:"migrations"`
	Adaptations  int64   `json:"adaptations"`
	Backlog      int     `json:"migration_backlog"`
	OvershootPct float64 `json:"budget_overshoot_pct"`
	ReadNs       uint64  `json:"read_ns_sampled"` // summed latency of the timed read calls
}

// runner owns the clients of one world and steps them through warm-up
// and the measured segments.
type runner struct {
	w       *world
	clients []*client
	tr      *tracer
}

func newRunner(w *world, tr *tracer) *runner {
	r := &runner{w: w, tr: tr}
	for id := 0; id < w.clients; id++ {
		c := &client{w: w, id: id, tr: tr, read: new(hist), write: new(hist)}
		if w.spec.index == shardedTree {
			c.bk = make([]uint64, batchKeys)
			c.bv = make([]uint64, batchKeys)
			c.bf = make([]bool, batchKeys)
		}
		r.clients = append(r.clients, c)
	}
	return r
}

// generate pre-draws every client's streams, outside any timed region.
// It returns the generation cost per entry.
func (r *runner) generate() (nsPerEntry float64) {
	w := r.w
	s := w.spec
	length := scaled(s.streamLen, w.cfg.Scale)
	if length < 4*batchKeys {
		length = 4 * batchKeys
	}
	length -= length % batchKeys
	start := time.Now()
	entries := 0
	for _, c := range r.clients {
		g := &generator{keys: w.keys, client: c.id, clients: w.clients, seed: w.cfg.Seed}
		for p := 0; p < s.phases; p++ {
			g.rng = rand.New(rand.NewSource(g.streamSeed(p, 0)))
			ops := s.gen(g, p, make([]entry, 0, length))
			c.streams = append(c.streams, &stream{ops: ops})
			entries += len(ops)
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(entries)
}

// attach binds the clients to the built index.
func (r *runner) attach() {
	for _, c := range r.clients {
		if r.w.sharded != nil {
			c.batch = r.w.sharded
		} else {
			c.ses = r.w.tree.NewSession()
		}
	}
}

// phase runs all clients concurrently for ops ops, split evenly; it
// returns the ops completed (a call of several ops may overshoot) and the
// wall time taken.
func (r *runner) phase(ops int64) (int64, time.Duration) {
	before := r.totalOps()
	per := max(1, ops/int64(len(r.clients)))
	start := time.Now()
	if len(r.clients) == 1 {
		r.clients[0].run(per)
	} else {
		var wg sync.WaitGroup
		for _, c := range r.clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.run(per)
			}()
		}
		wg.Wait()
	}
	return r.totalOps() - before, time.Since(start)
}

// enter moves every client to stream p (workloads with one stream keep
// cycling through it).
func (r *runner) enter(p int) {
	for _, c := range r.clients {
		if p < len(c.streams) && c.streams[p] != c.cur {
			var seq uint64
			if c.cur != nil {
				seq = c.nextSeq()
			}
			c.use(c.streams[p], seq)
		}
	}
}

func (r *runner) resetHists() (read, write *hist) {
	read, write = new(hist), new(hist)
	for _, c := range r.clients {
		read.merge(c.read)
		write.merge(c.write)
		*c.read, *c.write = hist{}, hist{}
	}
	return read, write
}

func (r *runner) failed() (n int64) {
	for _, c := range r.clients {
		n += c.failed
	}
	return n
}

func (r *runner) backlogMax() int { return r.clients[0].backlogMax }

func (r *runner) totalOps() (n int64) {
	for _, c := range r.clients {
		n += c.ops
	}
	return n
}

// usedBytes is what the budget is meant to cover: leaf encodings, result
// cache and the sampler's own state, over all trees.
func (w *world) usedBytes() (b int64) {
	for _, t := range w.trees() {
		b += t.Tree.Bytes() + t.CacheBytes() + t.Mgr.Bytes()
	}
	return b
}

func (w *world) migrations() (m, a int64) {
	for _, t := range w.trees() {
		m += t.Mgr.Migrations()
		a += t.Mgr.Adaptations()
	}
	return m, a
}

func (w *world) backlog() int {
	if w.sharded != nil {
		return w.sharded.MigrationBacklog()
	}
	return w.tree.MigrationBacklog()
}

// warmUp runs the fixed warm-up op count on stream 0. A churning workload
// first inserts its freshLive keys, so that every churn write from there on
// alternates delete and insert and the index is as large in the first
// segment as in the last.
func (r *runner) warmUp(span int32) {
	r.enter(0)
	for _, c := range r.clients {
		c.segSpan = span
	}
	if c := r.clients[0]; r.w.spec.churns {
		for c.ins-c.del < uint64(r.w.freshLive) {
			c.churn(c.ins)
		}
	}
	r.phase(int64(scaled(r.w.spec.warmOps, r.w.cfg.Scale)))
	r.resetHists()
	for _, c := range r.clients {
		c.abOps, c.abNs = [2]int64{}, [2]int64{}
		c.warmScanPairs = c.scanPairs
	}
}

// window runs the measured segments and returns their statistics.
func (r *runner) window(root int32) []segmentStat {
	w := r.w
	segOps := int64(float64(w.spec.opsPerSecond) * w.cfg.Seconds * w.cfg.Scale / segments)
	stats := make([]segmentStat, segments)
	for s := range stats {
		if w.spec.phases > 1 {
			r.enter(1 + s)
		}
		m0, a0 := w.migrations()
		span := r.tr.begin(root, fmt.Sprintf("segment %d", s))
		for _, c := range r.clients {
			c.segSpan = span
		}
		ops, elapsed := r.phase(segOps)
		r.tr.end(span)
		m1, a1 := w.migrations()
		read, write := r.resetHists()
		st := &stats[s]
		st.Ops, st.Seconds = ops, elapsed.Seconds()
		st.OpsPerS = float64(ops) / elapsed.Seconds()
		st.ReadP50, st.ReadP99, st.ReadP999 = read.quantile(0.5), read.quantile(0.99), read.quantile(0.999)
		st.ReadMax, st.ReadSamples, st.ReadNs = float64(read.max), read.n, read.sum
		st.WriteP50, st.WriteP99, st.WriteP999 = write.quantile(0.5), write.quantile(0.99), write.quantile(0.999)
		st.WriteMax, st.WriteSamples = float64(write.max), write.n
		st.Migrations, st.Adaptations = m1-m0, a1-a0
		st.Backlog = w.backlog()
		r.clients[0].backlogMax = max(r.clients[0].backlogMax, st.Backlog)
		st.OvershootPct = 100 * (float64(w.usedBytes())/float64(w.budget) - 1)
	}
	return stats
}

// settle lets asynchronous work finish so that counters and the heap
// reading describe a quiescent index.
func (w *world) settle() {
	if w.sharded != nil {
		w.sharded.DrainMigrations()
		w.sharded.Flush()
	} else {
		w.tree.DrainMigrations()
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// keepAlive pins the benchmark's own arrays across the final heap reading.
func (r *runner) keepAlive() {
	runtime.KeepAlive(r.w.keys)
	runtime.KeepAlive(r.w.vals)
	runtime.KeepAlive(r.w.fresh)
	runtime.KeepAlive(r.w.freshVal)
	runtime.KeepAlive(r.clients)
}
