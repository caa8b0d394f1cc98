package obs

import "sync"

// EncodingClass is one row of an encoding-distribution snapshot: how many
// units currently live in the named encoding and their byte footprint.
type EncodingClass struct {
	Name  string `json:"name"`
	Units int64  `json:"units"`
	Bytes int64  `json:"bytes"`
}

// Snapshot is the per-epoch state of one adaptation scope, taken at the
// end of every adaptation phase: the encoding distribution, the sampling
// parameters the next phase will run with, what the phase did, and the
// budget headroom. A sequence of snapshots is the convergence curve the
// paper's Figures 12–14 plot endpoints of.
type Snapshot struct {
	// Seq shares the process-wide sequencer with trace events.
	Seq int64 `json:"seq"`
	// Source is the emitting scope ("" for an unscoped index).
	Source string `json:"source,omitempty"`
	// Epoch is the adaptation epoch that just completed.
	Epoch uint32 `json:"epoch"`

	// Encodings is the index's unit/byte distribution per encoding.
	Encodings []EncodingClass `json:"encodings,omitempty"`

	// Sampling state entering the next phase.
	Skip       int `json:"skip"`
	SampleSize int `json:"sample_size"`

	// What the completed phase saw and did.
	SampledTotal  int64 `json:"sampled_total"`
	UniqueSamples int   `json:"unique_samples"`
	Hot           int   `json:"hot"`
	K             int   `json:"k"`
	Migrations    int   `json:"migrations"`
	Queued        int   `json:"queued"`
	// InlineFallbacks stays 0 since the backpressure rework; kept in the
	// schema so dumps can assert the fallback path stays dead.
	InlineFallbacks int `json:"inline_fallbacks"`
	// Backpressured counts this phase's proposals when the backlog earlier
	// phases left was at its bound; Coalesced those that replaced a
	// different pending target, Deduped those whose target was already
	// pending.
	// PipeDepth is the migration backlog when the phase completed.
	Backpressured int `json:"backpressured"`
	Coalesced     int `json:"coalesced"`
	Deduped       int `json:"deduped"`
	Evicted       int `json:"evicted"`
	PipeDepth     int `json:"pipe_depth"`

	// Footprints and budget headroom. BudgetBytes is 0 when unbounded;
	// headroom is BudgetBytes − UsedBytes − ChargedBytes when bounded.
	// ChargedBytes is auxiliary read-path memory (hot-key result cache)
	// charged against the same budget as the index encodings.
	TrackedUnits   int   `json:"tracked_units"`
	FrameworkBytes int64 `json:"framework_bytes"`
	UsedBytes      int64 `json:"used_bytes"`
	ChargedBytes   int64 `json:"charged_bytes,omitempty"`
	BudgetBytes    int64 `json:"budget_bytes"`

	// AdaptNs is the duration of the adaptation phase itself.
	AdaptNs int64 `json:"adapt_ns"`
}

// Headroom returns BudgetBytes − UsedBytes − ChargedBytes, or 0 when
// unbounded.
func (s *Snapshot) Headroom() int64 {
	if s.BudgetBytes <= 0 {
		return 0
	}
	return s.BudgetBytes - s.UsedBytes - s.ChargedBytes
}

// SnapshotRing is a bounded ring of per-epoch snapshots, same contract as
// MigrationTrace.
type SnapshotRing struct {
	mu      sync.Mutex
	buf     []Snapshot
	total   int64
	dropped int64
}

// NewSnapshotRing creates a ring with the given capacity.
func NewSnapshotRing(capacity int) *SnapshotRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SnapshotRing{buf: make([]Snapshot, 0, capacity)}
}

// Record appends one snapshot, stamping its sequence number.
func (r *SnapshotRing) Record(s Snapshot) {
	s.Seq = nextSeq()
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, s)
	} else {
		r.buf[r.total%int64(cap(r.buf))] = s
		r.dropped++
	}
	r.total++
	r.mu.Unlock()
}

// Snapshots returns the retained snapshots oldest-first (a copy).
func (r *SnapshotRing) Snapshots() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := len(r.buf)
	out := make([]Snapshot, n)
	if r.total <= int64(cap(r.buf)) {
		copy(out, r.buf)
		return out
	}
	head := int(r.total % int64(cap(r.buf)))
	copy(out, r.buf[head:])
	copy(out[n-head:], r.buf[:head])
	return out
}

// Total returns how many snapshots were ever recorded; Dropped how many
// were overwritten.
func (r *SnapshotRing) Total() int64   { r.mu.Lock(); defer r.mu.Unlock(); return r.total }
func (r *SnapshotRing) Dropped() int64 { r.mu.Lock(); defer r.mu.Unlock(); return r.dropped }
