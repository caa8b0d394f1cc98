package shard

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ahi/internal/btree"
	"ahi/internal/wal"
)

// Tests of the concurrent front: sessions checked out per call, callbacks
// that call back in, samples merged across sessions.

// within fails the test when f has not returned after d — the way a
// deadlock shows.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// emitFunc adapts a function to btree.ScanSink.
type emitFunc func(req int, keys, vals []uint64)

func (f emitFunc) Emit(req int, keys, vals []uint64) { f(req, keys, vals) }

// TestScanCallbacksMayReadTheFront: Scan's fn and ScanBatch's Emit look up
// each delivered key in the shard being scanned. Under a shard mutex held
// across the scan this deadlocked on itself.
func TestScanCallbacksMayReadTheFront(t *testing.T) {
	for _, shards := range []int{1, 4} {
		keys, vals := loadKeys(4_000)
		s := BulkLoad(testConfig(shards, 2), keys, vals)
		check := func(k, v uint64) {
			if got, ok := s.Lookup(k); !ok || got != v {
				t.Errorf("shards=%d: Lookup(%d) inside a scan = (%d,%v), scan delivered %d", shards, k, got, ok, v)
			}
		}
		within(t, 10*time.Second, "Scan whose fn calls Lookup", func() {
			if n := s.Scan(keys[10], 500, func(k, v uint64) bool { check(k, v); return true }); n != 500 {
				t.Errorf("shards=%d: Scan visited %d of 500", shards, n)
			}
		})
		within(t, 10*time.Second, "ScanBatch whose Emit calls Lookup", func() {
			reqs := []btree.ScanReq{{From: keys[5], N: 300}, {From: keys[3_000], N: 300}}
			n := s.ScanBatch(reqs, emitFunc(func(_ int, ks, vs []uint64) {
				for i := range ks {
					check(ks[i], vs[i])
				}
			}))
			if n != 600 {
				t.Errorf("shards=%d: ScanBatch delivered %d of 600", shards, n)
			}
		})
		s.Close()
	}
}

// TestBlockedCallbackDoesNotBlockShard parks one caller inside its scan
// callback and runs a second caller's point and batch operations against
// the same shard meanwhile.
func TestBlockedCallbackDoesNotBlockShard(t *testing.T) {
	for _, shards := range []int{1, 4} {
		keys, vals := loadKeys(4_000)
		s := BulkLoad(testConfig(shards, 2), keys, vals)
		entered, leave := make(chan struct{}), make(chan struct{})
		var once sync.Once
		park := func() {
			once.Do(func() { close(entered) })
			<-leave
		}
		var scanners sync.WaitGroup
		scanners.Add(2)
		go func() {
			defer scanners.Done()
			s.ScanBatch([]btree.ScanReq{{From: keys[0], N: 10}}, emitFunc(func(int, []uint64, []uint64) { park() }))
		}()
		go func() {
			defer scanners.Done()
			s.Scan(keys[0], 10, func(_, _ uint64) bool { park(); return false })
		}()
		<-entered
		within(t, 10*time.Second, "second caller on the scanned shard", func() {
			// keys[0:64] all live in the first shard, where both scans are parked.
			if v, ok := s.Lookup(keys[3]); !ok || v != vals[3] {
				t.Errorf("shards=%d: Lookup beside a parked scan = (%d,%v)", shards, v, ok)
			}
			got, found := make([]uint64, 64), make([]bool, 64)
			s.LookupBatch(keys[:64], got, found)
			for i := range got {
				if !found[i] || got[i] != vals[i] {
					t.Errorf("shards=%d: LookupBatch beside a parked scan: key %d = (%d,%v)", shards, keys[i], got[i], found[i])
				}
			}
			ins := make([]bool, 2)
			s.InsertBatch([]uint64{keys[1] + 1, keys[2] + 1}, []uint64{7, 8}, ins)
			if !ins[0] || !ins[1] {
				t.Errorf("shards=%d: InsertBatch beside a parked scan: %v", shards, ins)
			}
		})
		close(leave)
		scanners.Wait()
		s.Close()
	}
}

// hotShardCaller is one of k callers of the hot-shard runs: it touches only
// keys congruent to id modulo k, so every result it sees for such a key is
// determined by its own history, kept in own.
type hotShardCaller struct {
	t     *testing.T
	s     *ShardedBTree
	id, k uint64
	rng   *rand.Rand
	own   map[uint64]uint64
	seq   uint64
}

// key draws a key of the caller's class, 99 in 100 from shard 1.
func (c *hotShardCaller) key() uint64 {
	const stride = uint64(1) << 62 // New's even split of the key space over 4 shards
	g, span := uint64(1), 6_000
	if c.rng.Intn(100) == 0 {
		g, span = uint64(c.rng.Intn(4)), 600
	}
	return g*stride + uint64(c.rng.Intn(span))*c.k + c.id
}

func (c *hotShardCaller) distinctKeys(n int) []uint64 {
	seen := make(map[uint64]struct{}, n)
	ks := make([]uint64, 0, n)
	for len(ks) < n {
		k := c.key()
		if _, dup := seen[k]; !dup {
			seen[k] = struct{}{}
			ks = append(ks, k)
		}
	}
	return ks
}

func (c *hotShardCaller) step() {
	c.seq++
	switch c.rng.Intn(6) {
	case 0:
		k := c.key()
		v, ok := c.s.Lookup(k)
		if wv, wok := c.own[k]; ok != wok || v != wv {
			c.t.Errorf("caller %d: Lookup(%d) = (%d,%v) want (%d,%v)", c.id, k, v, ok, wv, wok)
		}
	case 1:
		k := c.key()
		_, had := c.own[k]
		if c.s.Insert(k, c.seq) == had {
			c.t.Errorf("caller %d: Insert(%d) new=%v, key present before: %v", c.id, k, !had, had)
		}
		c.own[k] = c.seq
	case 2:
		k := c.key()
		_, had := c.own[k]
		if c.s.Delete(k) != had {
			c.t.Errorf("caller %d: Delete(%d) = %v want %v", c.id, k, !had, had)
		}
		delete(c.own, k)
	case 3:
		ks := c.distinctKeys(64)
		vs, found := make([]uint64, len(ks)), make([]bool, len(ks))
		c.s.LookupBatch(ks, vs, found)
		for i, k := range ks {
			if wv, wok := c.own[k]; found[i] != wok || (wok && vs[i] != wv) {
				c.t.Errorf("caller %d: LookupBatch(%d) = (%d,%v) want (%d,%v)", c.id, k, vs[i], found[i], wv, wok)
			}
		}
	case 4:
		ks := c.distinctKeys(64)
		vs, ins := make([]uint64, len(ks)), make([]bool, len(ks))
		for i := range vs {
			vs[i] = c.seq<<8 | uint64(i)
		}
		c.s.InsertBatch(ks, vs, ins)
		for i, k := range ks {
			if _, had := c.own[k]; ins[i] == had {
				c.t.Errorf("caller %d: InsertBatch(%d) new=%v, key present before: %v", c.id, k, ins[i], had)
			}
			c.own[k] = vs[i]
		}
	case 5:
		// Other callers' keys come and go inside the range; the caller's
		// own must all be there, with its values.
		from, n := c.key(), 40
		var last uint64
		mine, pairs := 0, 0
		c.s.ScanBatch([]btree.ScanReq{{From: from, N: n}}, emitFunc(func(_ int, ks, vs []uint64) {
			for i, k := range ks {
				if k%c.k == c.id {
					mine++
					if wv, ok := c.own[k]; !ok || wv != vs[i] {
						c.t.Errorf("caller %d: ScanBatch delivered (%d,%d), own map has (%d,%v)", c.id, k, vs[i], wv, ok)
					}
				}
				last = k
			}
			pairs += len(ks)
		}))
		if pairs < n {
			last = ^uint64(0) // ran off the end of the index
		}
		want := 0
		for k := range c.own {
			if k >= from && k <= last {
				want++
			}
		}
		if pairs > 0 && mine != want {
			c.t.Errorf("caller %d: ScanBatch over [%d,%d] delivered %d of the caller's keys, it holds %d", c.id, from, last, mine, want)
		}
	}
}

// hotShardRun drives k concurrent callers against s, 99 % of the keys in
// shard 1, and returns what each caller believes the index holds.
func hotShardRun(t *testing.T, s *ShardedBTree, k, steps int) []map[uint64]uint64 {
	owns := make([]map[uint64]uint64, k)
	var wg sync.WaitGroup
	for id := 0; id < k; id++ {
		owns[id] = make(map[uint64]uint64)
		c := &hotShardCaller{t: t, s: s, id: uint64(id), k: uint64(k),
			rng: rand.New(rand.NewSource(int64(id) + 1)), own: owns[id]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < steps && !t.Failed(); i++ {
				c.step()
			}
		}()
	}
	wg.Wait()
	return owns
}

func hotShardConfig() Config {
	cfg := testConfig(4, 4)
	cfg.Adaptive.AsyncMigrations = true
	// Gapped leaves come from the manager alone, and a phase needs few
	// samples: what the run leaves behind shows whether samples taken on
	// different sessions reached it.
	cfg.Adaptive.NoEagerExpand = true
	cfg.Adaptive.InitialSkip, cfg.Adaptive.MinSkip, cfg.Adaptive.MaxSkip = 1, 1, 1
	cfg.Adaptive.FixedSkip = true
	cfg.Adaptive.MaxSampleSize = 64
	return cfg
}

// TestConcurrentCallersHotShard: 4 callers × every operation of the front
// with 99 % of the keys in one shard, each caller checking every result
// against its own history; afterwards adaptation has run on every shard
// from samples spread over several sessions, and no shard made more
// sessions than there were callers.
func TestConcurrentCallersHotShard(t *testing.T) {
	const callers = 4
	s := New(hotShardConfig())
	defer s.Close()
	owns := hotShardRun(t, s, callers, 1_500)
	s.Flush()
	s.DrainMigrations()
	total := 0
	for _, own := range owns {
		total += len(own)
		for k, wv := range own {
			if v, ok := s.Lookup(k); !ok || v != wv {
				t.Fatalf("after the run: Lookup(%d) = (%d,%v) want (%d,true)", k, v, ok, wv)
			}
		}
	}
	if s.Len() != total {
		t.Fatalf("Len = %d, callers hold %d keys", s.Len(), total)
	}
	for g, sh := range s.shards {
		if sh.a.Mgr.Epoch() == 0 {
			t.Errorf("shard %d: no adaptation phase completed", g)
		}
		if n, _ := sh.countSessions(); n > callers {
			t.Errorf("shard %d made %d sessions for %d callers", g, n, callers)
		}
	}
	if _, _, gapped := s.shards[1].a.Tree.LeafCounts(); gapped == 0 {
		t.Error("hot shard holds no Gapped leaf: samples did not reach its manager")
	}
}

// TestConcurrentCallersHotShardDurable repeats the run on a durable front
// and compares the reopened index with the callers' histories.
func TestConcurrentCallersHotShardDurable(t *testing.T) {
	cfg := hotShardConfig()
	cfg.Adaptive.Dur = &btree.DurabilityConfig{Dir: t.TempDir(), Policy: wal.SyncOS, SegmentBytes: 1 << 16}
	s, _, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owns := hotShardRun(t, s, 4, 600)
	s.Close()

	s, _, err = Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	total := 0
	for _, own := range owns {
		total += len(own)
		for k, wv := range own {
			if v, ok := s.Lookup(k); !ok || v != wv {
				t.Fatalf("after reopen: Lookup(%d) = (%d,%v) want (%d,true)", k, v, ok, wv)
			}
		}
	}
	if s.Len() != total {
		t.Fatalf("after reopen: Len = %d, callers hold %d keys", s.Len(), total)
	}
}

// TestSequentialCallsReuseOneSession: calls that do not overlap never make
// a second session on any shard, whichever entry point they use and
// whether or not a batch hands segments to other goroutines.
func TestSequentialCallsReuseOneSession(t *testing.T) {
	keys, vals := loadKeys(20_000)
	s := BulkLoad(testConfig(4, 4), keys, vals)
	defer s.Close()
	wide := make([]uint64, 4*2*fanOutMinKeys) // every shard's segment is large
	for i := range wide {
		wide[i] = keys[i*len(keys)/len(wide)]
	}
	got, found := make([]uint64, len(wide)), make([]bool, len(wide))
	var buf btree.ScanBuffer
	for i := 0; i < 10_000; i++ {
		k := keys[(i*7919)%len(keys)]
		switch i % 6 {
		case 0:
			s.Lookup(k)
		case 1:
			s.Insert(k+1, uint64(i))
		case 2:
			s.Delete(k + 1)
		case 3:
			s.LookupBatch(wide, got, found)
		case 4:
			buf.Reset(1)
			s.ScanBatch([]btree.ScanReq{{From: k, N: 8_000}}, &buf) // crosses shards
		case 5:
			s.Scan(k, 20, func(_, _ uint64) bool { return true })
		}
	}
	for g, sh := range s.shards {
		if n, busy := sh.countSessions(); n != 1 || busy != 0 {
			t.Errorf("shard %d: %d sessions made, %d still checked out, want 1 and 0", g, n, busy)
		}
	}
}

// countSessions returns how many sessions the shard ever made and how many
// of them are checked out.
func (sh *shardState) countSessions() (n, busy int) {
	for pg := &sh.sessions; pg != nil; pg = pg.next.Load() {
		made := min(int(pg.made.Load()), len(pg.ses))
		n += made
		busy += made - bits.OnesCount64(pg.idle.Load())
	}
	return n, busy
}

// TestSessionsGrowToOverlap: K callers inside their scan callbacks at once
// leave K sessions on the scanned shard (70 need a second page), and a
// caller running beside a Flush loop afterwards adds none — Flush holds
// one session at a time, so the caller always finds another.
func TestSessionsGrowToOverlap(t *testing.T) {
	for _, callers := range []int{4, 70} {
		keys, vals := loadKeys(4_000)
		s := BulkLoad(testConfig(4, 2), keys, vals)
		var entered, scanners sync.WaitGroup
		leave := make(chan struct{})
		entered.Add(callers)
		scanners.Add(callers)
		for c := 0; c < callers; c++ {
			go func() {
				defer scanners.Done()
				s.Scan(keys[0], 10, func(_, _ uint64) bool { entered.Done(); <-leave; return false })
			}()
		}
		entered.Wait()
		if n, busy := s.shards[0].countSessions(); n != callers || busy != callers {
			t.Fatalf("%d parked callers: %d sessions, %d checked out", callers, n, busy)
		}
		close(leave)
		scanners.Wait()

		stop := make(chan struct{})
		var flusher sync.WaitGroup
		flusher.Add(1)
		go func() {
			defer flusher.Done()
			for {
				select {
				case <-stop:
					return
				default:
					s.Flush()
				}
			}
		}()
		for i := 0; i < 10_000; i++ {
			s.Lookup(keys[i%64]) // first shard
		}
		close(stop)
		flusher.Wait()
		if n, busy := s.shards[0].countSessions(); n != callers || busy != 0 {
			t.Errorf("after a caller beside a Flush loop: %d sessions, %d checked out, had %d", n, busy, callers)
		}
		s.Close()
	}
}

// TestAcquireUnderContention: eight callers check sessions of one shard
// out and straight back in, so most of them lose the race for the lowest
// idle bit most of the time. A loser must move on to another session or
// make one, and no two callers may hold the same session.
func TestAcquireUnderContention(t *testing.T) {
	keys, vals := loadKeys(1_000)
	s := BulkLoad(testConfig(2, 2), keys, vals)
	defer s.Close()
	const callers = 8
	sh := s.shards[0]
	var held [64]atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100_000; i++ {
				ses := sh.acquire()
				h := &held[bits.TrailingZeros64(ses.bit)]
				if h.Add(1) != 1 {
					t.Error("two callers hold one session")
				}
				h.Add(-1)
				sh.release(ses)
			}
		}()
	}
	wg.Wait()
	if n, busy := sh.countSessions(); n > callers || busy != 0 {
		t.Errorf("%d sessions made, %d still checked out, want at most %d and 0", n, busy, callers)
	}
}
