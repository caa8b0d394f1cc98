// Package obs is the introspection layer of the adaptation framework:
// a lock-cheap metrics registry (atomic counters, gauges and fixed-bucket
// latency histograms), a bounded ring buffer of migration trace events,
// and per-epoch encoding-distribution snapshots. Embedding indexes emit
// into an Index scope; one Observability bundle aggregates any number of
// scopes (e.g. the shards of a ShardedBTree) behind a single registry and
// a single exposition surface (Prometheus text, JSON, expvar, and an
// optional net/http debug endpoint with pprof mounted).
//
// The hot path is allocation-free: every counter and histogram an index
// touches per event is resolved once at wiring time and bumped with plain
// atomics. With no Observability attached, instrumented code degrades to
// one nil check per emit site.
package obs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Observability bundles the introspection surfaces of one process:
// shared metrics registry, migration trace, snapshot ring, and — once
// EnableTracing is called — the per-op flight recorder with its SLO
// tracker. Create one per served index (or index group) via New and
// derive per-index scopes with Index.
type Observability struct {
	Reg   *Registry
	Trace *MigrationTrace
	Snaps *SnapshotRing
	// Flight is nil until EnableTracing; wiring code derives per-source
	// scopes from it and sessions bind them at creation.
	Flight *FlightRecorder

	flightMu sync.Mutex
}

// Default ring capacities: a trace of 4096 events and 1024 snapshots keep
// the full convergence history of any bench run while bounding memory to
// a few hundred KB.
const (
	DefaultTraceCap    = 4096
	DefaultSnapshotCap = 1024
)

// New creates an Observability bundle. Non-positive capacities take the
// defaults.
func New(traceCap, snapCap int) *Observability {
	if traceCap <= 0 {
		traceCap = DefaultTraceCap
	}
	if snapCap <= 0 {
		snapCap = DefaultSnapshotCap
	}
	return &Observability{
		Reg:   NewRegistry(),
		Trace: NewMigrationTrace(traceCap),
		Snaps: NewSnapshotRing(snapCap),
	}
}

// Index is one emitting scope inside an Observability bundle — typically
// one adaptation manager. All its metrics carry a source label (empty for
// a single unscoped index), and its trace events and snapshots are stamped
// with the same source, so several scopes aggregate cleanly in one
// registry: a plain tree's manager and a sharded tree's one manager each
// get their own scope while the bundle is exposed once.
type Index struct {
	o       *Observability
	source  string
	encName func(uint8) string

	// Pre-resolved hot-path instruments. Exported so wiring code can bump
	// them directly without a registry lookup.
	Samples      *Counter   // sampled accesses handed to Track
	Adapts       *Counter   // completed adaptation phases
	Migrations   *Counter   // successful migrations (inline + async)
	Failures     *Counter   // Migrate calls that reported ok=false
	Backpressure *Counter   // proposals of phases that found earlier phases' backlog at its bound
	Coalesced    *Counter   // proposals that replaced a different pending target
	Deduped      *Counter   // proposals whose target was already pending
	Evictions    *Counter   // units evicted from tracking
	QueueWaitNs  *Histogram // async wait between proposal and migration
	BuildNs      *Histogram // Migrate callback duration
	AdaptNs      *Histogram // full adaptation-phase duration
	SkipLen      *Gauge     // current skip length
	SampleSize   *Gauge     // current target sample size
	TrackedUnits *Gauge     // units in the sample store
	FwBytes      *Gauge     // framework footprint in bytes
	IndexBytes   *Gauge     // index footprint in bytes

	migByTrigger [numTriggers]*Counter
}

// Index derives an emitting scope. source labels every metric, trace event
// and snapshot of the scope (pass "" for a single unscoped index); encName
// maps the index's encoding numbers to names for the migration trace and
// may be nil (numeric fallback).
func (o *Observability) Index(source string, encName func(uint8) string) *Index {
	x := &Index{o: o, source: source, encName: encName}
	lbl := func() []Label {
		if source == "" {
			return nil
		}
		return []Label{{"source", source}}
	}
	r := o.Reg
	x.Samples = r.Counter("ahi_samples_total", lbl()...)
	x.Adapts = r.Counter("ahi_adaptations_total", lbl()...)
	x.Migrations = r.Counter("ahi_migrations_total", lbl()...)
	x.Failures = r.Counter("ahi_migration_failures_total", lbl()...)
	x.Backpressure = r.Counter("ahi_backpressure_total", lbl()...)
	x.Coalesced = r.Counter("ahi_coalesced_triggers_total", lbl()...)
	x.Deduped = r.Counter("ahi_deduped_enqueues_total", lbl()...)
	x.Evictions = r.Counter("ahi_evictions_total", lbl()...)
	x.QueueWaitNs = r.Histogram("ahi_queue_wait_ns", DefaultLatencyBucketsNs, lbl()...)
	x.BuildNs = r.Histogram("ahi_migration_build_ns", DefaultLatencyBucketsNs, lbl()...)
	x.AdaptNs = r.Histogram("ahi_adapt_phase_ns", DefaultLatencyBucketsNs, lbl()...)
	x.SkipLen = r.Gauge("ahi_skip_length", lbl()...)
	x.SampleSize = r.Gauge("ahi_sample_size", lbl()...)
	x.TrackedUnits = r.Gauge("ahi_tracked_units", lbl()...)
	x.FwBytes = r.Gauge("ahi_framework_bytes", lbl()...)
	x.IndexBytes = r.Gauge("ahi_index_bytes", lbl()...)
	for t := Trigger(0); t < numTriggers; t++ {
		x.migByTrigger[t] = r.Counter("ahi_migrations_by_trigger_total",
			append(lbl(), Label{"trigger", t.String()})...)
	}
	return x
}

// Source returns the scope's source label.
func (x *Index) Source() string { return x.source }

// EncodingName renders an encoding number through the scope's name map.
func (x *Index) EncodingName(e uint8) string {
	if x.encName != nil {
		if n := x.encName(e); n != "" {
			return n
		}
	}
	return fmt.Sprintf("enc%d", e)
}

// RecordMigration appends one migration event to the trace and bumps the
// derived counters/histograms. from < 0 means the pre-migration encoding
// is unknown; queueWaitNs is 0 for inline migrations.
func (x *Index) RecordMigration(epoch uint32, unit uint64, from int16, to uint8,
	trig Trigger, async, ok bool, queueWaitNs, buildNs int64) {
	if ok {
		x.Migrations.Inc()
		x.migByTrigger[trig].Inc()
	} else {
		x.Failures.Inc()
	}
	x.BuildNs.Observe(buildNs)
	if async {
		x.QueueWaitNs.Observe(queueWaitNs)
	}
	fromName := "?"
	if from >= 0 {
		fromName = x.EncodingName(uint8(from))
	}
	x.o.Trace.Record(MigrationEvent{
		Epoch:       epoch,
		Source:      x.source,
		Unit:        unit,
		From:        fromName,
		To:          x.EncodingName(to),
		Trigger:     trig,
		Async:       async,
		OK:          ok,
		QueueWaitNs: queueWaitNs,
		BuildNs:     buildNs,
	})
}

// RecordSnapshot stamps the snapshot with the scope's source, pushes it
// onto the ring, and mirrors the headline figures into gauges.
func (x *Index) RecordSnapshot(s Snapshot) {
	s.Source = x.source
	x.o.Snaps.Record(s)
	x.SkipLen.Set(int64(s.Skip))
	x.SampleSize.Set(int64(s.SampleSize))
	x.TrackedUnits.Set(int64(s.TrackedUnits))
	x.FwBytes.Set(s.FrameworkBytes)
	x.IndexBytes.Set(s.UsedBytes)
}

// seq is the process-wide event sequencer shared by trace and snapshots,
// so interleavings across scopes stay reconstructible.
var seq atomic.Int64

func nextSeq() int64 { return seq.Add(1) }
