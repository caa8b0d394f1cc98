package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Trigger classifies what caused a migration (the trace's "why").
type Trigger uint8

const (
	// TriggerCSHF: the index's heuristic decided on a cold/history path
	// (e.g. compact after two cold classifications).
	TriggerCSHF Trigger = iota
	// TriggerTopK: the unit was classified hot by the top-k pass and the
	// heuristic expanded it.
	TriggerTopK
	// TriggerBudget: the index exceeded its memory budget and the
	// heuristic compacted under pressure.
	TriggerBudget
	// TriggerMerge: a dual-stage wholesale merge (dynamic → static).
	TriggerMerge
	// TriggerOffline: offline training (TrainOffline) drove the migration.
	TriggerOffline

	numTriggers = 5
)

// String returns the trigger's trace/label name.
func (t Trigger) String() string {
	switch t {
	case TriggerCSHF:
		return "cshf"
	case TriggerTopK:
		return "topk"
	case TriggerBudget:
		return "budget"
	case TriggerMerge:
		return "merge"
	case TriggerOffline:
		return "offline"
	default:
		return fmt.Sprintf("trigger%d", uint8(t))
	}
}

// MarshalJSON renders the trigger as its name.
func (t Trigger) MarshalJSON() ([]byte, error) { return json.Marshal(t.String()) }

// UnmarshalJSON accepts a trigger name (unknown names map to TriggerCSHF).
func (t *Trigger) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for v := Trigger(0); v < numTriggers; v++ {
		if v.String() == s {
			*t = v
			return nil
		}
	}
	*t = TriggerCSHF
	return nil
}

// MigrationEvent is one entry of the migration trace: which unit changed
// encoding, why, and what the change cost.
type MigrationEvent struct {
	// Seq is a process-wide monotone sequence number (shared with
	// snapshots, so cross-scope interleavings are reconstructible).
	Seq int64 `json:"seq"`
	// Epoch is the adaptation epoch the decision was made in.
	Epoch uint32 `json:"epoch"`
	// Source is the emitting scope ("" for an unscoped index).
	Source string `json:"source,omitempty"`
	// Unit is the hashed unit identity (stable across the trace, opaque).
	Unit uint64 `json:"unit"`
	// From and To name the encodings ("?" when the origin is unknown).
	From string `json:"from"`
	To   string `json:"to"`
	// Trigger classifies the cause (top-k, CSHF cold path, budget, ...).
	Trigger Trigger `json:"trigger"`
	// Async is true when the migration ran on a migration worker.
	Async bool `json:"async"`
	// OK reports whether the Migrate callback changed anything.
	OK bool `json:"ok"`
	// QueueWaitNs is the enqueue→execution wait (0 for inline runs);
	// BuildNs the Migrate callback's duration.
	QueueWaitNs int64 `json:"queue_wait_ns"`
	BuildNs     int64 `json:"build_ns"`
}

// MigrationTrace is a bounded ring buffer of migration events. Recording
// takes one short mutex hold (migrations are orders of magnitude rarer
// than index operations); when the ring is full the oldest events are
// overwritten and counted as dropped.
type MigrationTrace struct {
	mu      sync.Mutex
	buf     []MigrationEvent
	total   int64 // events ever recorded
	dropped int64
	// lastSeq mirrors the newest event's seq for lock-free reads: the
	// flight recorder stamps it into ops that overlap a migration as the
	// exemplar link, on a path that must not take the trace mutex.
	lastSeq atomic.Int64
}

// NewMigrationTrace creates a trace ring with the given capacity.
func NewMigrationTrace(capacity int) *MigrationTrace {
	if capacity < 1 {
		capacity = 1
	}
	return &MigrationTrace{buf: make([]MigrationEvent, 0, capacity)}
}

// Record appends one event, stamping its sequence number. The seq is
// drawn under the mutex so ring order equals seq order — Since relies on
// that to binary-search the retained window.
func (t *MigrationTrace) Record(ev MigrationEvent) {
	t.mu.Lock()
	ev.Seq = nextSeq()
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, ev)
	} else {
		t.buf[t.total%int64(cap(t.buf))] = ev
		t.dropped++
	}
	t.total++
	t.lastSeq.Store(ev.Seq)
	t.mu.Unlock()
}

// LastSeq returns the newest recorded event's seq (0 when empty) without
// taking the mutex.
func (t *MigrationTrace) LastSeq() int64 { return t.lastSeq.Load() }

// Events returns the retained events oldest-first (a copy).
func (t *MigrationTrace) Events() []MigrationEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.buf)
	out := make([]MigrationEvent, n)
	if t.total <= int64(cap(t.buf)) {
		copy(out, t.buf)
		return out
	}
	head := int(t.total % int64(cap(t.buf))) // oldest retained slot
	copy(out, t.buf[head:])
	copy(out[n-head:], t.buf[:head])
	return out
}

// Since returns the retained events with Seq > seq, oldest-first. An
// incremental reader (ahimon attach) passes the last seq it has seen and
// gets only the new suffix — the full-ring copy Events() takes on every
// call happens at most once, at attach time. Since(0) equals Events().
func (t *MigrationTrace) Since(seq int64) []MigrationEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.buf)
	if n == 0 {
		return nil
	}
	at := func(i int) *MigrationEvent { return &t.buf[i] }
	if t.total > int64(cap(t.buf)) {
		head := int(t.total % int64(cap(t.buf)))
		at = func(i int) *MigrationEvent { return &t.buf[(head+i)%n] }
	}
	// Ring order is seq order (Record draws the seq under the mutex), so
	// the new suffix starts at the first retained event past seq.
	lo := sort.Search(n, func(i int) bool { return at(i).Seq > seq })
	if lo == n {
		return nil
	}
	out := make([]MigrationEvent, n-lo)
	for i := lo; i < n; i++ {
		out[i-lo] = *at(i)
	}
	return out
}

// Total returns how many events were ever recorded; Dropped how many were
// overwritten by ring wrap-around.
func (t *MigrationTrace) Total() int64   { t.mu.Lock(); defer t.mu.Unlock(); return t.total }
func (t *MigrationTrace) Dropped() int64 { t.mu.Lock(); defer t.mu.Unlock(); return t.dropped }
