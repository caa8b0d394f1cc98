// Package shard implements the serving layer's key-range-partitioned
// front-end: a ShardedBTree owns N Hybrid B+-trees behind one routing
// table, wired as one group (btree.NewGroup) to one adaptation manager
// and one result cache — the paper's one sampler, one top-k and one
// memory budget (§3) over all shards. Smaller per-shard trees keep
// traversals shallow and let batch segments run on several cores.
//
// Three protocols tie the shards together:
//
//   - Routing: shards own contiguous key ranges delimited by a sorted
//     bounds table (bounds[i] is the first key of shard i+1); a key routes
//     to the shard at the binary-search position of its upper bound. The
//     table is immutable after construction, so routing is lock-free.
//
//   - Batch fan-out: a request batch is grouped by destination shard with
//     one counting-sort pass (counts → offsets → gather), producing one
//     contiguous segment per shard in a pooled scratch buffer. Segments
//     run on the per-shard batch kernels: the caller keeps the largest
//     one and every one below fanOutMinKeys, only the other large ones go
//     to the semaphore-bounded pool (see fanOut). Results scatter back to
//     the caller's positional slices.
//
//   - Sessions: no lock is held across an index operation. Every call
//     checks a btree.Session out of its shard and returns it, so callers
//     of one shard run concurrently, a Scan or ScanBatch callback may
//     call back into the front, and the shared manager samples
//     thread-locally (§3.1.5, TLS), one sampler per session.
//
// Each phase of the shared manager classifies one global top-k under the
// total MemoryBudget, so the budget follows the hot range from shard to
// shard with no split to tune: a leaf's tracked context names its tree,
// and the migration goes there.
package shard

import (
	"fmt"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ahi/internal/btree"
	"ahi/internal/obs"
)

// Config configures a ShardedBTree.
type Config struct {
	// Shards is the number of key-range partitions (default 1).
	Shards int
	// Workers bounds the batch fan-out concurrency (default GOMAXPROCS,
	// capped at Shards). 1 disables the pool: sub-batches run inline.
	Workers int
	// Adaptive configures the shard trees and their one manager:
	// MemoryBudget, RelativeBudget and CacheFraction cover all shards
	// together.
	Adaptive btree.AdaptiveConfig
	// Obs attaches one observability sink to the front: the manager and
	// the cache label their series source="front", shard i its flight
	// recorder scope and log metrics source="shard<i>". Overrides
	// Adaptive.Obs/ObsSource.
	Obs *obs.Observability
}

func (c *Config) setDefaults() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
}

// shardState is one partition: an adaptive tree plus the sessions its
// callers check out. Tree and manager are concurrency-safe, a session is
// not, so every operation takes one for its duration: the lowest one
// checked in, or a new one when the bitmap read empty — every session was
// out at that instant, so their number grows to the peak of overlapping
// callers and no further. A lone caller stays on session 0, for two atomic
// read-modify-writes a call; nothing locks.
type shardState struct {
	a        *btree.Adaptive
	sessions sessionPage
	ops      atomic.Int64 // routed operations since construction
}

// sessionPage is 64 of a shard's sessions; a shard whose callers overlap
// further chains another page.
type sessionPage struct {
	idle atomic.Uint64 // bit i: ses[i] is checked in
	made atomic.Int32  // ses[:made] exist or are being made
	ses  [64]*session
	next atomic.Pointer[sessionPage]
}

type session struct {
	*btree.Session
	page *sessionPage
	bit  uint64
}

// take checks ses[i] out if it is checked in. A compare-and-swap loop and
// not idle.And(^bit)&bit: inlined into acquire, go1.24.0/amd64 keeps And's
// scratch mask in the register that holds acquire's receiver, and a caller
// that lost the race for the bit went on to dereference the mask.
func (pg *sessionPage) take(i int) bool {
	bit := uint64(1) << i
	for m := pg.idle.Load(); m&bit != 0; m = pg.idle.Load() {
		if pg.idle.CompareAndSwap(m, m&^bit) {
			return true
		}
	}
	return false
}

func (sh *shardState) acquire() *session {
	for pg := &sh.sessions; ; pg = pg.next.Load() {
		for m := pg.idle.Load(); m != 0; m = pg.idle.Load() {
			if i := bits.TrailingZeros64(m); pg.take(i) {
				return pg.ses[i]
			}
		}
		if pg.made.Load() < 64 {
			if i := pg.made.Add(1) - 1; i < 64 {
				pg.ses[i] = &session{sh.a.NewSession(), pg, 1 << i}
				return pg.ses[i]
			}
		}
		if pg.next.Load() == nil {
			pg.next.CompareAndSwap(nil, new(sessionPage))
		}
	}
}

func (sh *shardState) release(ses *session) { ses.page.idle.Or(ses.bit) }

// ShardedBTree is the key-range-partitioned serving front-end.
type ShardedBTree struct {
	cfg    Config
	bounds []uint64 // bounds[i] = first key of shard i+1; len = Shards-1
	shards []*shardState

	sem chan struct{} // bounded fan-out pool

	// frontRec is the flight-recorder scope of the routing layer itself
	// (source="front"): one coarse event per batch call with its shard
	// fan-out, on top of the per-shard events the sessions record. Nil
	// unless the shared Obs sink has tracing enabled.
	frontRec  *obs.OpRecorder
	frontTick atomic.Uint32
}

// New creates an empty ShardedBTree whose shards split the uint64 key
// space evenly.
func New(cfg Config) *ShardedBTree {
	cfg.setDefaults()
	return build(cfg, evenBounds(cfg.Shards), nil, nil)
}

// evenBounds cuts the uint64 key space into n equal ranges.
func evenBounds(n int) []uint64 {
	bounds := make([]uint64, n-1)
	stride := ^uint64(0)/uint64(n) + 1
	for i := range bounds {
		bounds[i] = stride * uint64(i+1)
	}
	return bounds
}

// BulkLoad builds a ShardedBTree from sorted unique keys, partitioning
// them into equally sized contiguous chunks — each chunk becomes one
// shard's bulk-loaded tree and its first key the routing bound.
func BulkLoad(cfg Config, keys, vals []uint64) *ShardedBTree {
	cfg.setDefaults()
	if len(keys) != len(vals) {
		panic("shard: keys and vals length mismatch")
	}
	n := cfg.Shards
	if len(keys) < n {
		// Not enough keys to cut meaningful ranges: even key-space split.
		s := New(cfg)
		ins := make([]bool, len(keys))
		s.InsertBatch(keys, vals, ins)
		return s
	}
	// Floor division: cut points i*per stay in range for every i < n, and
	// the last shard absorbs the remainder — build slices the input with
	// the same arithmetic, so chunk contents and routing bounds agree.
	per := len(keys) / n
	bounds := make([]uint64, 0, n-1)
	for i := 1; i < n; i++ {
		bounds = append(bounds, keys[i*per])
	}
	return build(cfg, bounds, keys, vals)
}

func build(cfg Config, bounds []uint64, keys, vals []uint64) *ShardedBTree {
	if cfg.Adaptive.Dur != nil {
		panic("shard: durable configs must go through shard.Open")
	}
	n := cfg.Shards
	per := len(keys) / n
	trees := make([]*btree.Tree, n)
	for i := range trees {
		if keys == nil {
			trees[i] = btree.New(cfg.Adaptive.Tree)
			continue
		}
		lo, hi := i*per, (i+1)*per
		if i == n-1 {
			hi = len(keys)
		}
		trees[i] = btree.BulkLoad(cfg.Adaptive.Tree, keys[lo:hi], vals[lo:hi])
	}
	acfg, sources := groupConfig(cfg)
	return assemble(cfg, bounds, btree.NewGroup(acfg, trees, sources))
}

// groupConfig derives the shard group's config from the front-end config,
// with the per-shard observability sources when Obs is set.
func groupConfig(cfg Config) (btree.AdaptiveConfig, []string) {
	acfg := cfg.Adaptive
	if cfg.Obs == nil {
		return acfg, nil
	}
	acfg.Obs, acfg.ObsSource = cfg.Obs, "front"
	sources := make([]string, cfg.Shards)
	for i := range sources {
		sources[i] = fmt.Sprintf("shard%d", i)
	}
	return acfg, sources
}

// assemble puts the front together around the wired shard trees.
func assemble(cfg Config, bounds []uint64, as []*btree.Adaptive) *ShardedBTree {
	s := &ShardedBTree{
		cfg:    cfg,
		bounds: bounds,
		shards: make([]*shardState, len(as)),
		sem:    make(chan struct{}, cfg.Workers),
	}
	for i, a := range as {
		s.shards[i] = &shardState{a: a}
	}
	if cfg.Obs != nil && cfg.Obs.Flight != nil {
		s.frontRec = cfg.Obs.Flight.Scope("front")
	}
	return s
}

// beginFront arms a front-layer probe for one batch call. The probe lives
// on the caller's stack — batch entry points run concurrently, so unlike
// sessions the front cannot reuse one. The sample tick is shared (atomic)
// across callers.
func (s *ShardedBTree) beginFront(p *obs.OpProbe, kind obs.OpKind, keys []uint64) {
	var k0 uint64
	if len(keys) > 0 {
		k0 = keys[0]
	}
	s.frontRec.Begin(p, kind, k0, s.frontTick.Add(1)&s.frontRec.SampleMask() == 0)
}

// shardOf routes a key: the number of bounds <= k is the shard index.
func (s *ShardedBTree) shardOf(k uint64) int {
	b := s.bounds
	if len(b) == 0 {
		return 0
	}
	return sort.Search(len(b), func(i int) bool { return b[i] > k })
}

// Shards returns the shard count.
func (s *ShardedBTree) Shards() int { return len(s.shards) }

// Shard exposes shard i's adaptive tree (bench/test introspection). Its
// Tree is shard i's own; its Mgr, its cache (CacheStats, CacheBytes) and
// the migration calls (DrainMigrations, MigrationBacklog, Close) belong
// to the whole front and are the same for every i: read them once, not
// summed over shards, and close the front, not a shard.
func (s *ShardedBTree) Shard(i int) *btree.Adaptive { return s.shards[i].a }

// Lookup routes a single-key lookup through a session of the owning shard.
func (s *ShardedBTree) Lookup(k uint64) (uint64, bool) {
	sh := s.shards[s.shardOf(k)]
	sh.ops.Add(1)
	ses := sh.acquire()
	v, ok := ses.Lookup(k)
	sh.release(ses)
	return v, ok
}

// Insert routes a single-key insert.
func (s *ShardedBTree) Insert(k, v uint64) bool {
	sh := s.shards[s.shardOf(k)]
	sh.ops.Add(1)
	ses := sh.acquire()
	ok := ses.Insert(k, v)
	sh.release(ses)
	return ok
}

// Delete routes a single-key delete.
func (s *ShardedBTree) Delete(k uint64) bool {
	sh := s.shards[s.shardOf(k)]
	sh.ops.Add(1)
	ses := sh.acquire()
	ok := ses.Delete(k)
	sh.release(ses)
	return ok
}

// Scan visits up to n pairs with key >= from in ascending key order,
// crossing shard boundaries as needed.
func (s *ShardedBTree) Scan(from uint64, n int, fn func(k, v uint64) bool) int {
	visited := 0
	stopped := false
	wrapped := func(k, v uint64) bool {
		if !fn(k, v) {
			stopped = true
			return false
		}
		return true
	}
	for i := s.shardOf(from); i < len(s.shards) && visited < n && !stopped; i++ {
		sh := s.shards[i]
		sh.ops.Add(1)
		ses := sh.acquire()
		visited += ses.Scan(from, n-visited, wrapped)
		sh.release(ses)
		if i < len(s.bounds) {
			from = s.bounds[i] // continue at the next shard's first key
		}
	}
	return visited
}

// --- Batch routing -----------------------------------------------------

// routeScratch is the pooled grouping buffer of one batch: counting-sort
// style counts/offsets per shard plus flat gathered key/value/result
// segments (one contiguous segment per shard).
type routeScratch struct {
	counts  []int
	offsets []int
	sid     []int32 // per-key shard id from the count pass
	gidx    []int   // gathered original positions
	gk, gv  []uint64
	gf      []bool
}

var routePool = sync.Pool{New: func() any { return &routeScratch{} }}

func (rs *routeScratch) size(shards, n int) {
	if cap(rs.counts) < shards+1 {
		rs.counts = make([]int, shards+1)
		rs.offsets = make([]int, shards+1)
	}
	rs.counts = rs.counts[:shards+1]
	rs.offsets = rs.offsets[:shards+1]
	clear(rs.counts)
	if cap(rs.gidx) < n {
		rs.sid = make([]int32, n)
		rs.gidx = make([]int, n)
		rs.gk = make([]uint64, n)
		rs.gv = make([]uint64, n)
		rs.gf = make([]bool, n)
	}
	rs.sid = rs.sid[:n]
	rs.gidx = rs.gidx[:n]
	rs.gk = rs.gk[:n]
	rs.gv = rs.gv[:n]
	rs.gf = rs.gf[:n]
}

// segLen is the number of keys group routed to shard g.
func (rs *routeScratch) segLen(g int) int { return rs.offsets[g+1] - rs.offsets[g] }

// group gathers the batch into per-shard contiguous segments; segment g is
// [offsets[g], offsets[g+1]) of the flat arrays. Returns how many shards
// are touched.
func (s *ShardedBTree) group(keys []uint64, rs *routeScratch) int {
	ns := len(s.shards)
	rs.size(ns, len(keys))
	for i, k := range keys {
		g := s.shardOf(k)
		rs.sid[i] = int32(g)
		rs.counts[g]++
	}
	touched := 0
	off := 0
	for g := 0; g < ns; g++ {
		rs.offsets[g] = off
		if rs.counts[g] > 0 {
			touched++
		}
		off += rs.counts[g]
		rs.counts[g] = rs.offsets[g] // reuse as running fill cursor
	}
	rs.offsets[ns] = off
	for i, k := range keys {
		g := rs.sid[i]
		p := rs.counts[g]
		rs.counts[g] = p + 1
		rs.gidx[p] = i
		rs.gk[p] = k
	}
	return touched
}

// fanOutMinKeys is the smallest segment that gets a goroutine of its own:
// a handoff costs a goroutine start and two thread wake-ups. One caller,
// uniform keys, 4 Succinct shards, 2 cores, ns a key handed over against
// inline (EXPERIMENTS.md, shardfront): 32 keys a segment 426 against 338,
// 64 keys 334 against 294, 128 keys 274 against 317, 512 keys 176 against
// 244. Cached keys cost a fifth of these, so they cross over later still.
const fanOutMinKeys = 128

// fanOut runs fn on a checked-out session of every shard whose segment
// size(g) is positive. The caller runs the largest segment and every one
// below fanOutMinKeys; only the other large ones go to the bounded pool,
// so one big segment with a few stray keys beside it — what a hot range
// produces — stays on the caller. Workers: 1 never fans out.
func (s *ShardedBTree) fanOut(size func(g int) int, fn func(g int, ses *btree.Session)) {
	large, own, ownLen := 0, 0, 0
	if cap(s.sem) > 1 {
		for g := range s.shards {
			if n := size(g); n >= fanOutMinKeys {
				large++
				if n > ownLen {
					own, ownLen = g, n
				}
			}
		}
	}
	if large < 2 {
		for g := range s.shards {
			if size(g) > 0 {
				s.runOn(g, fn)
			}
		}
		return
	}
	var wg sync.WaitGroup
	for g := range s.shards {
		if g == own || size(g) < fanOutMinKeys {
			continue
		}
		wg.Add(1)
		s.sem <- struct{}{}
		go func(g int) {
			defer func() { <-s.sem; wg.Done() }()
			s.runOn(g, fn)
		}(g)
	}
	for g := range s.shards {
		if n := size(g); n > 0 && (g == own || n < fanOutMinKeys) {
			s.runOn(g, fn)
		}
	}
	wg.Wait()
}

func (s *ShardedBTree) runOn(g int, fn func(g int, ses *btree.Session)) {
	sh := s.shards[g]
	ses := sh.acquire()
	fn(g, ses.Session)
	sh.release(ses)
}

// LookupBatch looks up len(keys) keys, storing results positionally in
// vals and found. The batch is grouped by shard and each segment runs the
// shard tree's interleaved batch-lookup kernel (see fanOut for where).
func (s *ShardedBTree) LookupBatch(keys, vals []uint64, found []bool) {
	s.batch(obs.OpLookupBatch, (*btree.Session).LookupBatch, keys, vals, found)
}

// InsertBatch inserts len(keys) pairs; inserted[i] reports whether keys[i]
// was new. Duplicate keys in one batch resolve in submission order within
// their shard (last value wins).
func (s *ShardedBTree) InsertBatch(keys, vals []uint64, inserted []bool) {
	s.batch(obs.OpInsertBatch, (*btree.Session).InsertBatch, keys, vals, inserted)
}

// batch routes one LookupBatch or InsertBatch call: op is the session's
// kernel, vals its input (insert) or output (lookup), flags its output.
func (s *ShardedBTree) batch(kind obs.OpKind, op func(ses *btree.Session, keys, vals []uint64, flags []bool), keys, vals []uint64, flags []bool) {
	n := len(keys)
	if len(vals) < n || len(flags) < n {
		panic("shard: batch value or result slices shorter than keys")
	}
	if n == 0 {
		return
	}
	var p obs.OpProbe
	if s.frontRec != nil {
		s.beginFront(&p, kind, keys)
	}
	touched := 1
	if len(s.shards) == 1 {
		// Single shard: no grouping, no gather/scatter — the batch runs on
		// the caller's slices directly.
		sh := s.shards[0]
		sh.ops.Add(int64(n))
		ses := sh.acquire()
		op(ses.Session, keys, vals[:n], flags[:n])
		sh.release(ses)
	} else {
		rs := routePool.Get().(*routeScratch)
		touched = s.group(keys, rs)
		if kind == obs.OpInsertBatch {
			for i := 0; i < n; i++ {
				rs.gv[i] = vals[rs.gidx[i]]
			}
		}
		s.fanOut(rs.segLen, func(g int, ses *btree.Session) {
			lo, hi := rs.offsets[g], rs.offsets[g+1]
			s.shards[g].ops.Add(int64(hi - lo))
			op(ses, rs.gk[lo:hi], rs.gv[lo:hi], rs.gf[lo:hi])
		})
		for i := 0; i < n; i++ {
			flags[rs.gidx[i]] = rs.gf[i]
		}
		if kind == obs.OpLookupBatch {
			for i := 0; i < n; i++ {
				vals[rs.gidx[i]] = rs.gv[i]
			}
		}
		routePool.Put(rs)
	}
	if s.frontRec != nil {
		p.Ev.Ops = int32(n)
		p.Ev.Fanout = int32(touched)
		p.End()
	}
}

// Ops returns the number of operations routed to shard i.
func (s *ShardedBTree) Ops(i int) int64 { return s.shards[i].ops.Load() }

// Len returns the total number of stored keys.
func (s *ShardedBTree) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.a.Tree.Len()
	}
	return n
}

// Bytes returns the aggregate index footprint.
func (s *ShardedBTree) Bytes() int64 {
	var b int64
	for _, sh := range s.shards {
		b += sh.a.Tree.Bytes()
	}
	return b
}

// DrainMigrations blocks until every pending asynchronous migration of
// the shared manager has applied.
func (s *ShardedBTree) DrainMigrations() { s.shards[0].a.DrainMigrations() }

// MigrationBacklog reports the shared manager's migration backlog.
func (s *ShardedBTree) MigrationBacklog() int { return s.shards[0].a.MigrationBacklog() }

// Steals returns 0: one manager's workers apply every shard's migrations,
// and nothing steals. The benchmark's shard.steals rung reads it, and
// reads 0, until the ledger change that retires the rung (ROADMAP item 1).
func (s *ShardedBTree) Steals() int64 { return 0 }

// Close merges the sessions' samples, then applies the pending migrations,
// stops the migration workers and closes every shard's log.
func (s *ShardedBTree) Close() {
	s.Flush()
	for _, sh := range s.shards {
		sh.a.Close()
	}
}

// Flush merges the buffered thread-local samples of every idle session
// into the manager — all of them when no call is in flight. It
// holds one session at a time, so a caller arriving meanwhile finds the
// others.
func (s *ShardedBTree) Flush() {
	for _, sh := range s.shards {
		for pg := &sh.sessions; pg != nil; pg = pg.next.Load() {
			for i := range pg.ses {
				if pg.take(i) {
					pg.ses[i].Flush()
					sh.release(pg.ses[i])
				}
			}
		}
	}
}
