package btree

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ahi/internal/core"
	"ahi/internal/obs"
	"ahi/internal/wal"
	"ahi/internal/workload"
)

func flightFixture(t testing.TB, sampleEvery int) (*Adaptive, *obs.Observability) {
	t.Helper()
	o := obs.New(64, 16)
	o.EnableTracing(obs.FlightConfig{SampleEvery: sampleEvery, RingCap: 1 << 14})
	n := 1 << 12
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 16
		vals[i] = uint64(i)
	}
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:           Config{DefaultEncoding: EncSuccinct},
		RelativeBudget: 0.5,
		InitialSkip:    8,
		MinSkip:        4,
		MaxSkip:        32,
		MaxSampleSize:  256,
		Obs:            o,
		ObsSource:      "btree",
	}, keys, vals)
	t.Cleanup(a.Close)
	return a, o
}

// TestFlightTracedSessions drives every traced session entry point with
// 1/1 sampling and checks the committed events carry the lifecycle
// signals: correct kinds, non-zero descent depth — and, structurally, no
// event ever classified "unknown" (the attribution guarantee the
// explain-tail acceptance bar leans on).
func TestFlightTracedSessions(t *testing.T) {
	a, o := flightFixture(t, 1)
	s := a.NewSession()
	for i := 0; i < 64; i++ {
		if v, ok := s.Lookup(uint64(i) * 16); !ok || v != uint64(i) {
			t.Fatalf("traced lookup %d wrong: %v %v", i, v, ok)
		}
	}
	if _, ok := s.Lookup(3*16 + 7); ok {
		t.Fatal("traced miss reported found")
	}
	if !s.Insert(5*16+1, 99) {
		t.Fatal("traced insert failed")
	}
	if !s.Delete(5*16 + 1) {
		t.Fatal("traced delete failed")
	}
	if got := s.Scan(0, 10, func(k, v uint64) bool { return true }); got != 10 {
		t.Fatalf("traced scan visited %d want 10", got)
	}
	bk := []uint64{0, 16, 32}
	bv := make([]uint64, 3)
	bf := make([]bool, 3)
	s.LookupBatch(bk, bv, bf)
	if !bf[0] || bv[2] != 2 {
		t.Fatalf("traced batch lookup wrong: %v %v", bv, bf)
	}
	s.InsertBatch([]uint64{7*16 + 3, 9*16 + 3}, []uint64{1, 2}, make([]bool, 2))

	evs := o.Flight.Events()
	if len(evs) == 0 {
		t.Fatal("no events committed at 1/1 sampling")
	}
	kinds := map[obs.OpKind]int{}
	var sawDepth bool
	for _, ev := range evs {
		kinds[ev.Kind]++
		if ev.Cause == obs.CauseUnknown {
			t.Fatalf("event with unknown cause: %+v", ev)
		}
		if ev.Source != "btree" {
			t.Fatalf("event source %q want btree", ev.Source)
		}
		if ev.Kind == obs.OpLookup && ev.Depth > 0 {
			sawDepth = true
		}
		if (ev.Kind == obs.OpInsert || ev.Kind == obs.OpDelete) && (ev.Depth != 0 || ev.RightHops != 0) {
			t.Fatalf("write event reports its descent (writes carry retries only): %+v", ev)
		}
	}
	for _, k := range []obs.OpKind{obs.OpLookup, obs.OpInsert, obs.OpDelete,
		obs.OpScan, obs.OpLookupBatch, obs.OpInsertBatch} {
		if kinds[k] == 0 {
			t.Fatalf("no %v events committed (have %v)", k, kinds)
		}
	}
	if !sawDepth {
		t.Fatal("no lookup recorded a descent depth")
	}
}

// mirrorOps drives one seeded stream of all seven Session operations
// against two identically loaded trees — one untraced, one with a flight
// recorder sampling one op in sampleEvery — and requires the same results
// op for op, the same cache counters and the same adaptation state at the
// end: tracing may observe an operation, never change what it does. Both
// trees run with the result cache on, and migrate
// inline, so that when a migration lands does not depend on a worker
// goroutine's timing. It returns the recorder of the traced tree.
func mirrorOps(t *testing.T, sampleEvery, ops int) *obs.FlightRecorder {
	t.Helper()
	keys, vals := sortedPairs(20000, 11)
	base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	cfg := AdaptiveConfig{
		Tree:          Config{DefaultEncoding: EncSuccinct},
		MemoryBudget:  base.Bytes() + 24*(LeafCap*16+leafHeaderBytes),
		CacheFraction: 0.05,
		InitialSkip:   4,
		MinSkip:       2,
		MaxSkip:       16,
		MaxSampleSize: 64,
	}
	plain := BulkLoadAdaptive(cfg, keys, vals)
	o := obs.New(64, 16)
	fr := o.EnableTracing(obs.FlightConfig{SampleEvery: sampleEvery, RingCap: 1 << 10})
	cfg.Obs, cfg.ObsSource = o, "mirror"
	traced := BulkLoadAdaptive(cfg, keys, vals)
	t.Cleanup(plain.Close)
	t.Cleanup(traced.Close)

	type side struct {
		a   *Adaptive
		s   *Session
		buf ScanBuffer
		out []uint64 // what the op returned, flattened
	}
	sides := [2]*side{{a: plain, s: plain.NewSession()}, {a: traced, s: traced.NewSession()}}
	rng := rand.New(rand.NewSource(5))
	z := workload.NewZipf(len(keys), 0.99, 3)
	key := func() uint64 { // mostly hot present keys, some absent ones
		k := keys[z.Draw()]
		if rng.Intn(5) == 0 {
			k++
		}
		return k
	}
	b2u := func(b bool) uint64 {
		if b {
			return 1
		}
		return 0
	}
	bk, bv, bf := make([]uint64, 32), make([]uint64, 32), make([]bool, 32)
	reqs := make([]ScanReq, 3)
	for i := 0; i < ops; i++ {
		kind, k, v, n := rng.Intn(20), key(), rng.Uint64()>>36, 1+rng.Intn(400)
		for j := range bk {
			bk[j], bv[j] = key(), rng.Uint64()>>36
		}
		for j := range reqs {
			reqs[j] = ScanReq{From: key(), N: rng.Intn(300)}
		}
		for _, sd := range sides {
			sd.out = sd.out[:0]
			collect := func(k, v uint64) bool {
				sd.out = append(sd.out, k, v)
				return len(sd.out) < 2*n-1 || kind%2 == 0 // odd kinds stop early
			}
			switch {
			case kind < 8:
				got, ok := sd.s.Lookup(k)
				sd.out = append(sd.out, got, b2u(ok))
			case kind < 10:
				sd.out = append(sd.out, b2u(sd.s.Insert(k, v)))
			case kind < 11:
				sd.out = append(sd.out, b2u(sd.s.Delete(k)))
			case kind < 13:
				sd.out = append(sd.out, uint64(sd.s.Scan(k, n, collect)))
			case kind < 16:
				sd.s.LookupBatch(bk, bv, bf)
				for j := range bk {
					sd.out = append(sd.out, bv[j], b2u(bf[j]))
				}
			case kind < 18:
				sd.s.InsertBatch(bk[:16], bv[:16], bf[:16])
				for _, ins := range bf[:16] {
					sd.out = append(sd.out, b2u(ins))
				}
			default:
				sd.buf.Reset(len(reqs))
				sd.out = append(sd.out, uint64(sd.s.ScanBatch(reqs, &sd.buf)))
				for j := range reqs {
					sd.out = append(sd.out, sd.buf.Keys(j)...)
					sd.out = append(sd.out, sd.buf.Vals(j)...)
				}
			}
		}
		if !slices.Equal(sides[0].out, sides[1].out) {
			t.Fatalf("op %d (kind %d, key %d): untraced returned %v, traced %v", i, kind, k, sides[0].out, sides[1].out)
		}
	}
	type state struct {
		hits, misses, admitted, rejected int64
		adapts, migrations               int64
		sample, skip, units              int
		succinct, packed, gapped         int64
	}
	var st [2]state
	for i, sd := range sides {
		sd.s.Flush()
		cs, m := sd.a.CacheStats(), sd.a.Mgr
		st[i] = state{hits: cs.Hits, misses: cs.Misses, admitted: cs.Admitted, rejected: cs.Rejected,
			adapts: m.Adaptations(), migrations: m.Migrations(),
			sample: m.SampleSize(), skip: m.SkipLength(), units: m.TrackedUnits()}
		st[i].succinct, st[i].packed, st[i].gapped = sd.a.Tree.LeafCounts()
		if err := sd.a.Tree.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if st[0] != st[1] {
		t.Fatalf("tracing changed the cache or the adaptation:\nuntraced %+v\ntraced   %+v", st[0], st[1])
	}
	if s := st[0]; s.hits == 0 || s.admitted == 0 || s.adapts == 0 || s.migrations == 0 || s.gapped == 0 {
		t.Fatalf("stream did not reach the cache and the adaptation: %+v", s)
	}
	return fr
}

// TestFlightTracedMatchesUntraced: every op sampled, so every op runs
// with each stage writing into a live event.
func TestFlightTracedMatchesUntraced(t *testing.T) {
	const ops = 6000
	if fr := mirrorOps(t, 1, ops); fr.Total() != ops {
		t.Fatalf("committed %d events for %d ops at 1/1 sampling", fr.Total(), ops)
	}
}

// TestFlightSamplingDisabledMatchesFast: a 1/big mask means nearly every
// op carries a probe but is sampled out at commit.
func TestFlightSamplingDisabledMatchesFast(t *testing.T) {
	const ops = 3000
	// The latency histogram sees every op even when the ring holds few.
	if fr := mirrorOps(t, 1024, ops); fr.Total() >= ops/2 {
		t.Fatalf("committed %d events at 1/1024 sampling", fr.Total())
	}
}

// TestFlightDurableFsyncWait holds the three logged write kinds to one
// meaning of FsyncWaitNs: the wait for the log's commit point and nothing
// the op does afterwards. Every op here is sampled and every sample ends a
// phase, so each write's Track runs an adaptation phase — made slow by
// OnAdapt — after its commit. Under SyncOS that phase dwarfs the commit
// (one write to the page cache), so no write may be labelled fsync-stall;
// under SyncAlways every write waited for a real fsync.
func TestFlightDurableFsyncWait(t *testing.T) {
	run := func(policy wal.SyncPolicy, onAdapt func(core.AdaptInfo)) map[obs.OpKind][]obs.OpEvent {
		o := obs.New(64, 16)
		o.EnableTracing(obs.FlightConfig{SampleEvery: 1})
		cfg := durCfg(t.TempDir(), 0)
		cfg.Dur.Policy = policy
		cfg.FixedSkip = true                          // at skip 0: every op is a sample
		cfg.MaxSampleSize, cfg.DisableBloom = 1, true // no first-sighting filter: every Track counts
		cfg.OnAdapt = onAdapt
		cfg.Obs = o
		a, _, err := OpenAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		s := a.NewSession()
		for i := uint64(0); i < 3; i++ {
			s.Insert(i, i)
			s.InsertBatch([]uint64{10 + i, 20 + i}, []uint64{i, i}, make([]bool, 2))
			s.Delete(i)
		}
		byKind := map[obs.OpKind][]obs.OpEvent{}
		for _, ev := range o.Flight.Events() {
			byKind[ev.Kind] = append(byKind[ev.Kind], ev)
		}
		for _, k := range []obs.OpKind{obs.OpInsert, obs.OpInsertBatch, obs.OpDelete} {
			if len(byKind[k]) != 3 {
				t.Fatalf("%v: %d events for 3 ops", k, len(byKind[k]))
			}
		}
		return byKind
	}
	const phase = 2 * time.Millisecond
	for kind, evs := range run(wal.SyncOS, func(core.AdaptInfo) { time.Sleep(phase) }) {
		for _, ev := range evs {
			if ev.DurNs < phase.Nanoseconds() {
				t.Fatalf("%v took %d ns: its Track ran no adaptation phase", kind, ev.DurNs)
			}
			if ev.Cause == obs.CauseFsyncStall {
				t.Fatalf("%v under SyncOS labelled fsync-stall: fsync wait %d of %d ns", kind, ev.FsyncWaitNs, ev.DurNs)
			}
		}
	}
	for kind, evs := range run(wal.SyncAlways, nil) {
		for _, ev := range evs {
			if ev.FsyncWaitNs <= 0 {
				t.Fatalf("%v under SyncAlways recorded no fsync wait: %+v", kind, ev)
			}
		}
	}
}

// TestFlightUnderConcurrentMigrations is the -race leg: traced sessions
// (lookups, inserts, batches) racing leaf migrations and the epoch
// reclamation they trigger, all while a reader drains the recorder
// incrementally. Run under -race in CI.
func TestFlightUnderConcurrentMigrations(t *testing.T) {
	a, o := flightFixture(t, 1)
	var writers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			s := a.NewSession()
			bk := make([]uint64, 8)
			bv := make([]uint64, 8)
			bf := make([]bool, 8)
			for i := 0; i < 3000; i++ {
				k := uint64((i*7+g*13)%(1<<12)) * 16
				switch i % 5 {
				case 0:
					s.Insert(k+1, uint64(i))
				case 1:
					for j := range bk {
						bk[j] = uint64((i+j)%(1<<12)) * 16
					}
					s.LookupBatch(bk, bv, bf)
				default:
					s.Lookup(k)
				}
			}
		}(g)
	}
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		targets := []core.Encoding{EncGapped, EncPacked, EncSuccinct}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			tgt := targets[i%len(targets)]
			a.Tree.WalkLeaves(func(l *Leaf) bool {
				a.Tree.MigrateLeaf(l, tgt)
				return true
			})
		}
	}()
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		var since int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			evs := o.Flight.EventsSince(since)
			if len(evs) > 0 {
				since = evs[len(evs)-1].Seq
			}
		}
	}()
	writers.Wait()
	close(stop)
	churn.Wait()
	readers.Wait()
	if o.Flight.Total() == 0 {
		t.Fatal("no events recorded under concurrency")
	}
	// With migrations churning the whole run, some traced ops must have
	// observed an overlap and linked a migration exemplar.
	var overlaps int
	for _, ev := range o.Flight.Events() {
		if ev.MigOverlap {
			overlaps++
			if ev.Cause != obs.CauseMigrationOverlap {
				t.Fatalf("overlapped op classified %v", ev.Cause)
			}
		}
	}
	if overlaps == 0 {
		t.Log("warning: no migration overlaps observed (timing-dependent)")
	}
	if err := a.Tree.Validate(); err != nil {
		t.Fatalf("tree invalid after churn: %v", err)
	}
}

// TestFlightTailAttribution is the acceptance bar in miniature: a
// skewed mixed workload with 1/1 sampling, migrations running, then
// ExplainTail over the dump must name a cause for at least 90% of
// >p999 lookups. Traced events are classified at commit time, so
// structurally this should be 100%.
func TestFlightTailAttribution(t *testing.T) {
	a, o := flightFixture(t, 1)
	s := a.NewSession()
	for i := 0; i < 20000; i++ {
		k := uint64(i%997) * 16
		if i%10 == 9 {
			s.Insert(k+1+uint64(i%14), uint64(i))
		} else {
			s.Lookup(k)
		}
	}
	d := o.Dump()
	if len(d.Ops) == 0 {
		t.Fatal("dump carries no ops")
	}
	for _, rep := range obs.ExplainTail(d.Ops, 0.999) {
		if rep.TailOps == 0 {
			continue
		}
		if nf := rep.NamedFraction(); nf < 0.9 {
			t.Fatalf("%v tail only %.0f%% named (want >=90%%)", rep.Kind, 100*nf)
		}
	}
}
