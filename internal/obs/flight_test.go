package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightEnableTracingIdempotent(t *testing.T) {
	o := New(16, 16)
	f := o.EnableTracing(FlightConfig{SampleEvery: 3})
	if f2 := o.EnableTracing(FlightConfig{SampleEvery: 1024}); f2 != f {
		t.Fatal("EnableTracing must be idempotent")
	}
	// SampleEvery rounds up to a power of two; 3 → 4 → mask 3.
	if f.SampleMask() != 3 {
		t.Fatalf("mask=%d want 3", f.SampleMask())
	}
	if s := o.Flight.Scope("x"); s != o.Flight.Scope("x") {
		t.Fatal("Scope must return the same recorder per source")
	}
}

func TestFlightCommitAndOrder(t *testing.T) {
	o := New(16, 16)
	f := o.EnableTracing(FlightConfig{SampleEvery: 1, SlowThresholdNs: 1 << 62})
	a, b := f.Scope("a"), f.Scope("b")
	var p OpProbe
	for i := 0; i < 3; i++ {
		a.Begin(&p, OpLookup, uint64(i), true)
		p.Ev.Found = true
		p.End()
		b.Begin(&p, OpInsert, uint64(100+i), true)
		p.End()
	}
	evs := f.Events()
	if len(evs) != 6 {
		t.Fatalf("events=%d want 6", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events not seq-ordered: %d after %d", evs[i].Seq, evs[i-1].Seq)
		}
	}
	if f.Total() != 6 || f.Dropped() != 0 {
		t.Fatalf("total=%d dropped=%d want 6/0", f.Total(), f.Dropped())
	}
	// Incremental read: everything after the 4th seq.
	since := f.Events()[3].Seq
	if rest := f.EventsSince(since); len(rest) != 2 {
		t.Fatalf("EventsSince=%d want 2", len(rest))
	}
	// Cause counters reached the registry, labelled per source.
	var sb strings.Builder
	o.Reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `ahi_ops_recorded_total{source="a"} 3`) {
		t.Fatalf("missing per-scope recorded counter:\n%s", sb.String())
	}
}

func TestFlightSamplingAndSlowEscape(t *testing.T) {
	o := New(16, 16)
	f := o.EnableTracing(FlightConfig{SampleEvery: 64, SlowThresholdNs: 1 << 62})
	r := f.Scope("")
	var p OpProbe
	// Not sampled, not slow: latency observed, nothing committed.
	r.Begin(&p, OpLookup, 1, false)
	p.End()
	if got := len(r.Events()); got != 0 {
		t.Fatalf("unsampled fast op committed: %d events", got)
	}
	if r.latNs[OpLookup].Count() != 1 {
		t.Fatal("unsampled op must still feed the latency histogram")
	}
	// Not sampled but slow: the escape hatch commits it.
	ev := OpEvent{Kind: OpLookup, Key: 2}
	r.Finish(&ev, 1<<62, time.Now().UnixNano())
	evs := r.Events()
	if len(evs) != 1 || !evs[0].Slow {
		t.Fatalf("slow op not committed via escape hatch: %+v", evs)
	}
}

func TestFlightRingWrap(t *testing.T) {
	o := New(16, 16)
	f := o.EnableTracing(FlightConfig{SampleEvery: 1, RingCap: 4, SlowThresholdNs: 1 << 62})
	r := f.Scope("")
	var p OpProbe
	for i := 0; i < 10; i++ {
		r.Begin(&p, OpLookup, uint64(i), true)
		p.End()
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained=%d want 4", len(evs))
	}
	if r.Total() != 10 || r.Dropped() != 6 {
		t.Fatalf("total=%d dropped=%d want 10/6", r.Total(), r.Dropped())
	}
	// The retained window is the newest 4 (keys 6..9).
	for i, ev := range evs {
		if ev.Key != uint64(6+i) {
			t.Fatalf("event %d: key=%d want %d", i, ev.Key, 6+i)
		}
	}
}

func TestFlightClassifyPriority(t *testing.T) {
	cases := []struct {
		name string
		ev   OpEvent
		want Cause
	}{
		{"fsync stall wins over everything", OpEvent{FsyncWaitNs: 900, DurNs: 1000, MigOverlap: true, Deferred: 3}, CauseFsyncStall},
		{"sub-dominant fsync wait defers", OpEvent{FsyncWaitNs: 100, DurNs: 1000, MigOverlap: true}, CauseMigrationOverlap},
		{"overlap wins over everything", OpEvent{MigOverlap: true, Deferred: 3, CacheHit: true}, CauseMigrationOverlap},
		{"backpressure before write-retry", OpEvent{Deferred: 2, WriteRetries: 4}, CauseBackpressure},
		{"write-retry before torn", OpEvent{WriteRetries: 1, CacheTorn: 7}, CauseWriteRetry},
		{"torn before deep", OpEvent{CacheTorn: 1, RightHops: 2}, CauseCacheContention},
		{"right hops are deep", OpEvent{RightHops: 1}, CauseDeepDescent},
		{"depth over threshold is deep", OpEvent{Depth: deepDescentDepth + 1}, CauseDeepDescent},
		{"cache hit", OpEvent{CacheHit: true, Depth: 2}, CauseCacheHit},
		{"plain descent", OpEvent{Depth: 3, Found: true}, CauseTreeSearch},
	}
	for _, c := range cases {
		if got := classify(&c.ev); got != c.want {
			t.Errorf("%s: classify=%v want %v", c.name, got, c.want)
		}
	}
}

func TestFlightSLOTracker(t *testing.T) {
	s := newSLOTracker(SLOConfig{
		Objectives: []Objective{{Name: "lookup-p99", Op: OpLookup, Quantile: 0.99, TargetNs: 1000}},
		Windows:    []time.Duration{time.Minute},
	})
	now := int64(1_000_000 * sloBucketNs) // well past bucket 0
	for i := 0; i < 99; i++ {
		s.Observe(OpLookup, 500, now)
	}
	s.Observe(OpLookup, 5000, now) // 1 breach in 100 → bad fraction 1%
	s.Observe(OpInsert, 1<<40, now)
	rep := s.Report(now)
	if len(rep.Objectives) != 1 {
		t.Fatalf("objectives=%d want 1", len(rep.Objectives))
	}
	o := rep.Objectives[0]
	if o.TotalOps != 100 || o.TotalBad != 1 {
		t.Fatalf("ops=%d bad=%d want 100/1 (insert must not count)", o.TotalOps, o.TotalBad)
	}
	w := o.Windows[0]
	if w.Ops != 100 || w.Bad != 1 {
		t.Fatalf("window ops=%d bad=%d want 100/1", w.Ops, w.Bad)
	}
	// Bad fraction 0.01 over budget 0.01 → burn 1.0.
	if w.BurnRate < 0.99 || w.BurnRate > 1.01 {
		t.Fatalf("burn=%f want ~1.0", w.BurnRate)
	}
	// Outside the window the counts age out (bucket epoch reuse).
	later := now + (2 * time.Minute).Nanoseconds()
	if w := s.Report(later).Objectives[0].Windows[0]; w.Ops != 0 {
		t.Fatalf("aged window ops=%d want 0", w.Ops)
	}
}

func TestFlightExplainTail(t *testing.T) {
	var ops []OpEvent
	// 990 fast unremarkable lookups, 10 slow ones: 7 migration overlaps
	// (from shard5), 3 unknown.
	for i := 0; i < 990; i++ {
		ops = append(ops, OpEvent{Seq: int64(i), Kind: OpLookup, DurNs: 100, Cause: CauseTreeSearch})
	}
	for i := 0; i < 7; i++ {
		ops = append(ops, OpEvent{Seq: int64(1000 + i), Kind: OpLookup, DurNs: 90_000 + int64(i),
			Source: "shard5", Cause: CauseMigrationOverlap, MigSeq: 42})
	}
	for i := 0; i < 3; i++ {
		ops = append(ops, OpEvent{Seq: int64(2000 + i), Kind: OpLookup, DurNs: 80_000, Cause: CauseUnknown})
	}
	reps := ExplainTail(ops, 0.99)
	if len(reps) != 1 {
		t.Fatalf("reports=%d want 1", len(reps))
	}
	rep := reps[0]
	if rep.Kind != OpLookup || rep.TailOps != 10 {
		t.Fatalf("kind=%v tail=%d want lookup/10", rep.Kind, rep.TailOps)
	}
	if got := rep.NamedFraction(); got != 0.7 {
		t.Fatalf("named fraction=%f want 0.7", got)
	}
	top := rep.Causes[0]
	if top.Cause != CauseMigrationOverlap || top.Count != 7 || top.Source != "shard5" {
		t.Fatalf("top cause wrong: %+v", top)
	}
	if top.ExemplarMigSeq != 42 {
		t.Fatalf("exemplar mig seq=%d want 42", top.ExemplarMigSeq)
	}
	// Degenerate inputs fall back to the default quantile.
	if r := ExplainTail(ops, 42); len(r) != 1 || r[0].Quantile != 0.999 {
		t.Fatal("out-of-range quantile must default to 0.999")
	}
}

func TestFlightTraceSince(t *testing.T) {
	tr := NewMigrationTrace(8)
	for i := 0; i < 5; i++ {
		tr.Record(MigrationEvent{Unit: uint64(i), To: "x"})
	}
	evs := tr.Events()
	mid := evs[2].Seq
	inc := tr.Since(mid)
	if len(inc) != 2 || inc[0].Unit != 3 || inc[1].Unit != 4 {
		t.Fatalf("Since(mid) wrong: %+v", inc)
	}
	if got := tr.LastSeq(); got != evs[4].Seq {
		t.Fatalf("LastSeq=%d want %d", got, evs[4].Seq)
	}
	if got := tr.Since(tr.LastSeq()); len(got) != 0 {
		t.Fatalf("Since(last) must be empty, got %d", len(got))
	}
	// Wrapped ring: only the retained window is searchable, still ordered.
	for i := 5; i < 20; i++ {
		tr.Record(MigrationEvent{Unit: uint64(i), To: "x"})
	}
	evs = tr.Events()
	if len(evs) != 8 || evs[0].Unit != 12 {
		t.Fatalf("wrap window wrong: %+v", evs)
	}
	inc = tr.Since(evs[5].Seq)
	if len(inc) != 2 || inc[0].Unit != 18 || inc[1].Unit != 19 {
		t.Fatalf("Since after wrap wrong: %+v", inc)
	}
	if got := tr.Since(0); len(got) != 8 {
		t.Fatalf("Since(0)=%d events want 8", len(got))
	}
}

func TestFlightDumpCarriesOpsAndSLO(t *testing.T) {
	o := New(16, 16)
	f := o.EnableTracing(FlightConfig{SampleEvery: 1, SlowThresholdNs: 1 << 62})
	r := f.Scope("s0")
	var p OpProbe
	r.Begin(&p, OpLookup, 7, true)
	p.Ev.Found = true
	p.End()
	d := o.Dump()
	if len(d.Ops) != 1 || d.OpsTotal != 1 {
		t.Fatalf("dump ops=%d total=%d want 1/1", len(d.Ops), d.OpsTotal)
	}
	if d.SLO == nil || len(d.SLO.Objectives) == 0 {
		t.Fatal("dump missing SLO report")
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("dump with ops invalid: %v", err)
	}
	bad := d
	bad.Ops = []OpEvent{{Kind: OpKind(99)}}
	if bad.Validate() == nil {
		t.Fatal("unknown op kind must fail validation")
	}
	bad.Ops = []OpEvent{{Kind: OpLookup, Cause: Cause(99)}}
	if bad.Validate() == nil {
		t.Fatal("unknown cause must fail validation")
	}
	bad.Ops = []OpEvent{{Kind: OpLookup, DurNs: -1}}
	if bad.Validate() == nil {
		t.Fatal("negative duration must fail validation")
	}
}

// TestFlightConcurrentCommitAndRead drives concurrent committers on two
// scopes against concurrent EventsSince readers and migration-trace
// writers (the CI race leg runs this under -race).
func TestFlightConcurrentCommitAndRead(t *testing.T) {
	o := New(64, 16)
	f := o.EnableTracing(FlightConfig{SampleEvery: 1, RingCap: 64, SlowThresholdNs: 1 << 62})
	x := o.Index("mig", nil)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			r := f.Scope([]string{"a", "b"}[w%2])
			var p OpProbe
			for i := 0; i < 2000; i++ {
				r.Begin(&p, OpKind(i%int(numOpKinds)), uint64(i), true)
				p.Ev.Depth = int32(i % 7)
				p.End()
			}
		}(w)
	}
	writers.Add(1)
	go func() {
		defer writers.Done()
		for i := 0; i < 500; i++ {
			x.RecordMigration(uint32(i), uint64(i), 0, 2, TriggerTopK, true, true, 10, 10)
		}
	}()
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
			evs := f.EventsSince(since)
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Error("concurrent read returned unordered events")
					return
				}
			}
			if len(evs) > 0 {
				since = evs[len(evs)-1].Seq
			}
			_ = o.Trace.Since(o.Trace.LastSeq() - 100)
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()
	if f.Total() != 8000 {
		t.Fatalf("total=%d want 8000", f.Total())
	}
}
