package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder captures sampled, cause-tagged wide events spanning
// the full lifecycle of individual index operations: cache probe (and its
// seqlock retries), negative-filter rejection, shard routing fan-out, leaf
// descent depth and right-hops, migration backpressure, write
// retries, and overlap with in-flight migrations. Each per-source
// scope owns a lock-free ring of published *OpEvent pointers: writers
// claim a slot with one atomic add and publish a freshly allocated event,
// readers load pointers — no mutex on either side, and the only
// allocation is the committed event itself (sampled or slow ops only).
// Untraced sessions pay one nil check per op; traced sessions pay two
// clock reads plus a handful of plain stores into a stack/session-owned
// probe.

// OpKind classifies a recorded operation.
type OpKind uint8

const (
	OpLookup OpKind = iota
	OpInsert
	OpDelete
	OpScan
	OpLookupBatch
	OpInsertBatch
	OpScanBatch

	numOpKinds = 7
)

// String returns the kind's label name.
func (k OpKind) String() string {
	switch k {
	case OpLookup:
		return "lookup"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpScan:
		return "scan"
	case OpLookupBatch:
		return "lookup_batch"
	case OpInsertBatch:
		return "insert_batch"
	case OpScanBatch:
		return "scan_batch"
	default:
		return fmt.Sprintf("op%d", uint8(k))
	}
}

// MarshalJSON renders the kind as its name.
func (k OpKind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts a kind name (unknown names map to OpLookup).
func (k *OpKind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for v := OpKind(0); v < numOpKinds; v++ {
		if v.String() == s {
			*k = v
			return nil
		}
	}
	*k = OpLookup
	return nil
}

// Cause names the dominant stall of one traced operation. Classification
// is deterministic: the stall signals collected in the event are ranked by
// severity (migration overlap before backpressure before contention before
// plain descent shape), so every well-formed event gets a named cause and
// "unknown" only ever marks a malformed replay.
type Cause uint8

const (
	// CauseUnknown marks a malformed or hand-built event; classify never
	// returns it.
	CauseUnknown Cause = iota
	// CauseMigrationOverlap: the op ran while a leaf migration was
	// re-encoding (the event carries an exemplar trace seq).
	CauseMigrationOverlap
	// CauseBackpressure: the migration backlog was at or above its
	// bound, i.e. proposals had outrun the migration workers while the op
	// ran.
	CauseBackpressure
	// CauseWriteRetry: an insert lost its leaf lock (or found a dead leaf)
	// and re-descended.
	CauseWriteRetry
	// CauseCacheContention: the cache probe found its bucket torn — a
	// concurrent cache writer held the bucket's seqlock — and missed.
	CauseCacheContention
	// CauseDeepDescent: the descent chased right-links (split races) or an
	// unusually deep path.
	CauseDeepDescent
	// CauseCacheHit: served from the result cache.
	CauseCacheHit
	// CauseTreeSearch: a plain, uncontended tree descent — the default.
	CauseTreeSearch
	// CauseFsyncStall: a durable write spent the bulk of its latency
	// waiting for its commit group's fsync.
	CauseFsyncStall

	numCauses = 9
)

// String returns the cause's label name.
func (c Cause) String() string {
	switch c {
	case CauseUnknown:
		return "unknown"
	case CauseMigrationOverlap:
		return "migration-overlap"
	case CauseBackpressure:
		return "backpressure"
	case CauseWriteRetry:
		return "write-retry"
	case CauseCacheContention:
		return "cache-contention"
	case CauseDeepDescent:
		return "deep-descent"
	case CauseCacheHit:
		return "cache-hit"
	case CauseTreeSearch:
		return "tree-search"
	case CauseFsyncStall:
		return "fsync-stall"
	default:
		return fmt.Sprintf("cause%d", uint8(c))
	}
}

// Causes lists every defined cause, unknown first then by classification
// priority (tooling iterates this for stable table ordering).
func Causes() []Cause {
	out := make([]Cause, numCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// MarshalJSON renders the cause as its name.
func (c Cause) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

// UnmarshalJSON accepts a cause name (unknown names map to CauseUnknown).
func (c *Cause) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for v := Cause(0); v < numCauses; v++ {
		if v.String() == s {
			*c = v
			return nil
		}
	}
	*c = CauseUnknown
	return nil
}

// deepDescentDepth is the inner-level count past which a clean descent is
// tagged deep (root→leaf paths of healthy trees at bench scale stay ≤4).
const deepDescentDepth = 5

// classify ranks the event's stall signals and names the dominant one.
func classify(ev *OpEvent) Cause {
	switch {
	case ev.FsyncWaitNs > 0 && ev.FsyncWaitNs*2 >= ev.DurNs:
		// The commit-group fsync dominated the op (≥ half its latency) —
		// checked first because a durable write that waited out a disk
		// flush stalls for orders of magnitude longer than any in-memory
		// contention the other signals name.
		return CauseFsyncStall
	case ev.MigOverlap:
		return CauseMigrationOverlap
	case ev.Deferred > 0:
		return CauseBackpressure
	case ev.WriteRetries > 0:
		return CauseWriteRetry
	case ev.CacheTorn > 0:
		return CauseCacheContention
	case ev.RightHops > 0 || ev.Depth > deepDescentDepth:
		return CauseDeepDescent
	case ev.CacheHit:
		return CauseCacheHit
	default:
		return CauseTreeSearch
	}
}

// OpEvent is one wide event: everything the recorder learned about a
// single operation (or one batch call), cause-tagged at commit.
type OpEvent struct {
	// Seq shares the process-wide sequencer with the migration trace and
	// snapshot ring, so op↔migration interleavings are reconstructible.
	Seq    int64  `json:"seq"`
	Source string `json:"source,omitempty"`
	Kind   OpKind `json:"op"`
	// StartNs is wall-clock nanoseconds at op start; DurNs the duration.
	StartNs int64  `json:"start_ns,omitempty"`
	DurNs   int64  `json:"dur_ns"`
	Key     uint64 `json:"key"`
	// Ops is the batch size for batch kinds / entries visited for scans.
	Ops int32 `json:"ops,omitempty"`
	// Fanout is the number of shards a front-end batch touched, or the
	// request count of a fused scan batch.
	Fanout int32 `json:"fanout,omitempty"`
	// Leaves is the number of leaf images a scan walk visited; BulkDecode
	// records whether they were served by the bulk decodeRange kernels
	// (false only for the element-wise compatibility path).
	Leaves     int32 `json:"leaves,omitempty"`
	BulkDecode bool  `json:"bulk_decode,omitempty"`

	Sampled bool `json:"sampled,omitempty"`
	// Slow is set when DurNs crossed the always-record threshold (the
	// escape hatch that commits the event regardless of sampling).
	Slow  bool `json:"slow,omitempty"`
	Found bool `json:"found,omitempty"`

	// Lifecycle stage signals, filled by the instrumented path:
	CacheHit     bool  `json:"cache_hit,omitempty"`
	Depth        int32 `json:"depth,omitempty"`      // inner levels descended
	RightHops    int32 `json:"right_hops,omitempty"` // B-link right chases
	CacheTorn    int32 `json:"cache_torn,omitempty"` // 1 if the probe's bucket seqlock was torn, else 0
	WriteRetries int32 `json:"write_retries,omitempty"`
	Deferred     int32 `json:"deferred,omitempty"` // migration backlog, set at or above its bound
	MigOverlap   bool  `json:"mig_overlap,omitempty"`
	// FsyncWaitNs is the time a durable write spent waiting for its WAL
	// commit (group fsync) after the in-memory apply finished.
	FsyncWaitNs int64 `json:"fsync_wait_ns,omitempty"`
	// MigSeq is an exemplar link: the newest migration-trace seq at op end
	// when MigOverlap is set (look it up in the dump's trace).
	MigSeq int64 `json:"mig_seq,omitempty"`

	Cause Cause `json:"cause"`
}

// FlightConfig configures the recorder.
type FlightConfig struct {
	// SampleEvery records 1-in-N ops per session (rounded up to a power of
	// two; ≤0 takes DefaultSampleEvery, 1 records every op).
	SampleEvery int
	// SlowThresholdNs always commits ops at least this slow, regardless of
	// the sampling decision. ≤0 takes DefaultSlowThresholdNs; use a huge
	// value to effectively disable the escape hatch.
	SlowThresholdNs int64
	// RingCap is the per-scope event ring capacity (≤0: DefaultOpRingCap).
	RingCap int
	// SLO configures latency objectives; zero value takes the defaults
	// (lookup p99 ≤ 10µs, lookup p999 ≤ 100µs over 1m/10m windows).
	SLO SLOConfig
}

// Flight recorder defaults.
const (
	DefaultSampleEvery     = 64
	DefaultSlowThresholdNs = 100_000 // 100µs
	DefaultOpRingCap       = 4096
)

// FlightRecorder owns the per-source op rings, the sampling/slow-op
// policy, and the SLO tracker. Derive per-source scopes with Scope.
type FlightRecorder struct {
	o       *Observability
	mask    uint32
	slowNs  int64
	ringCap int
	slo     *SLOTracker

	mu     sync.Mutex
	scopes map[string]*OpRecorder
	order  []string
}

// EnableTracing attaches a flight recorder (and SLO tracker) to the
// bundle. Idempotent: a second call returns the existing recorder
// unchanged. Call it before wiring indexes — scopes are derived at wiring
// time and sessions bind them at creation.
func (o *Observability) EnableTracing(cfg FlightConfig) *FlightRecorder {
	o.flightMu.Lock()
	defer o.flightMu.Unlock()
	if o.Flight != nil {
		return o.Flight
	}
	every := cfg.SampleEvery
	if every <= 0 {
		every = DefaultSampleEvery
	}
	mask := uint32(1)
	for int(mask) < every {
		mask <<= 1
	}
	slowNs := cfg.SlowThresholdNs
	if slowNs <= 0 {
		slowNs = DefaultSlowThresholdNs
	}
	ringCap := cfg.RingCap
	if ringCap <= 0 {
		ringCap = DefaultOpRingCap
	}
	f := &FlightRecorder{
		o:       o,
		mask:    mask - 1,
		slowNs:  slowNs,
		ringCap: ringCap,
		scopes:  map[string]*OpRecorder{},
	}
	f.slo = newSLOTracker(cfg.SLO)
	f.slo.register(o.Reg)
	o.Flight = f
	return f
}

// SampleMask returns the sampling mask: record when tick&mask == 0.
func (f *FlightRecorder) SampleMask() uint32 { return f.mask }

// SlowThresholdNs returns the always-record threshold.
func (f *FlightRecorder) SlowThresholdNs() int64 { return f.slowNs }

// Scope returns (creating on first use) the recorder scope for source.
func (f *FlightRecorder) Scope(source string) *OpRecorder {
	f.mu.Lock()
	defer f.mu.Unlock()
	if r, ok := f.scopes[source]; ok {
		return r
	}
	r := &OpRecorder{
		f:      f,
		source: source,
		ring:   make([]atomic.Pointer[OpEvent], f.ringCap),
	}
	var lbl []Label
	if source != "" {
		lbl = []Label{{"source", source}}
	}
	reg := f.o.Reg
	r.recorded = reg.Counter("ahi_ops_recorded_total", lbl...)
	r.slowOps = reg.Counter("ahi_ops_slow_total", lbl...)
	for c := Cause(0); c < numCauses; c++ {
		r.byCause[c] = reg.Counter("ahi_op_cause_total",
			append(append([]Label(nil), lbl...), Label{"cause", c.String()})...)
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		r.latNs[k] = reg.Histogram("ahi_op_ns", DefaultLatencyBucketsNs,
			append(append([]Label(nil), lbl...), Label{"op", k.String()})...)
	}
	f.scopes[source] = r
	f.order = append(f.order, source)
	return r
}

// Events returns every scope's retained events merged, seq-ordered.
func (f *FlightRecorder) Events() []OpEvent { return f.EventsSince(0) }

// EventsSince returns retained events with Seq > seq across all scopes,
// seq-ordered.
func (f *FlightRecorder) EventsSince(seq int64) []OpEvent {
	f.mu.Lock()
	scopes := make([]*OpRecorder, 0, len(f.order))
	for _, s := range f.order {
		scopes = append(scopes, f.scopes[s])
	}
	f.mu.Unlock()
	var out []OpEvent
	for _, r := range scopes {
		out = append(out, r.EventsSince(seq)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Total returns committed events across scopes; Dropped how many were
// overwritten by ring wrap-around.
func (f *FlightRecorder) Total() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, r := range f.scopes {
		n += r.Total()
	}
	return n
}

// Dropped returns events lost to ring wrap-around across scopes.
func (f *FlightRecorder) Dropped() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n int64
	for _, r := range f.scopes {
		n += r.Dropped()
	}
	return n
}

// SLOReport evaluates the tracker's objectives as of now.
func (f *FlightRecorder) SLOReport() SLOReport {
	return f.slo.Report(time.Now().UnixNano())
}

// OpRecorder is one per-source flight-recorder scope: a lock-free ring of
// published events plus the scope's pre-resolved instruments. Latency
// histograms and SLO accounting see every traced op; the ring only holds
// committed (sampled or slow) ones.
type OpRecorder struct {
	f      *FlightRecorder
	source string
	ring   []atomic.Pointer[OpEvent]
	cursor atomic.Uint64 // slots ever claimed

	recorded *Counter
	slowOps  *Counter
	byCause  [numCauses]*Counter
	latNs    [numOpKinds]*Histogram
}

// SampleMask returns the sampling mask: trace when tick&mask == 0.
func (r *OpRecorder) SampleMask() uint32 { return r.f.mask }

// MigrationSeqHint returns the newest migration-trace seq, the exemplar
// link stamped into events that overlapped a migration.
func (r *OpRecorder) MigrationSeqHint() int64 { return r.f.o.Trace.LastSeq() }

// OpProbe is the per-session scratch a traced operation fills in. Begin
// resets it, End stamps the duration and hands it to Finish. It lives on
// the session (not the stack) so tracing a sampled-out op allocates
// nothing.
type OpProbe struct {
	Ev    OpEvent
	rec   *OpRecorder
	start time.Time
}

// Begin arms the probe for one op.
func (r *OpRecorder) Begin(p *OpProbe, kind OpKind, key uint64, sampled bool) {
	p.rec = r
	p.Ev = OpEvent{Kind: kind, Key: key, Sampled: sampled}
	p.start = time.Now()
}

// End finalizes the probe: observes latency/SLO and commits the event if
// it was sampled or crossed the slow threshold.
func (p *OpProbe) End() {
	r := p.rec
	if r == nil {
		return
	}
	d := time.Since(p.start).Nanoseconds()
	r.Finish(&p.Ev, d, p.start.UnixNano()+d)
}

// Finish records a completed op: durNs into the per-kind histogram and
// SLO tracker (every traced op), then — when sampled or slow — classifies
// the cause and publishes the event into the ring. nowNs is wall-clock
// nanoseconds at op end.
func (r *OpRecorder) Finish(ev *OpEvent, durNs, nowNs int64) {
	ev.DurNs = durNs
	ev.StartNs = nowNs - durNs
	if h := r.latNs[ev.Kind]; h != nil {
		h.Observe(durNs)
	}
	if r.f.slo != nil {
		r.f.slo.Observe(ev.Kind, durNs, nowNs)
	}
	if durNs >= r.f.slowNs {
		ev.Slow = true
	}
	if !ev.Sampled && !ev.Slow {
		return
	}
	ev.Source = r.source
	ev.Cause = classify(ev)
	ev.Seq = nextSeq()
	cp := new(OpEvent)
	*cp = *ev
	i := r.cursor.Add(1) - 1
	r.ring[i%uint64(len(r.ring))].Store(cp)
	r.recorded.Inc()
	if ev.Slow {
		r.slowOps.Inc()
	}
	r.byCause[ev.Cause].Inc()
}

// Events returns the scope's retained events, seq-ordered.
func (r *OpRecorder) Events() []OpEvent { return r.EventsSince(0) }

// EventsSince returns retained events with Seq > seq, seq-ordered. Reads
// race benignly with writers: each slot is a published pointer, so every
// returned event is complete (it may just not be the very newest).
func (r *OpRecorder) EventsSince(seq int64) []OpEvent {
	out := make([]OpEvent, 0, len(r.ring))
	for i := range r.ring {
		if p := r.ring[i].Load(); p != nil && p.Seq > seq {
			out = append(out, *p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// Total returns events ever committed to this scope.
func (r *OpRecorder) Total() int64 { return int64(r.cursor.Load()) }

// Dropped returns events overwritten by ring wrap-around.
func (r *OpRecorder) Dropped() int64 {
	n := int64(r.cursor.Load()) - int64(len(r.ring))
	if n < 0 {
		return 0
	}
	return n
}
