package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into
// the index (or around a group of such calls). Parent is the ID of the
// enclosing span, 0 for the root. Times are nanoseconds since the tracer
// was created.
type span struct {
	ID      int32   `json:"id"`
	Parent  int32   `json:"parent"`
	Name    string  `json:"name"`
	StartNs int64   `json:"start_ns"`
	EndNs   int64   `json:"end_ns"`
	Op      uint64  `json:"op,omitempty"`        // client sequence number of a call span
	NsPerOp float64 `json:"ns_per_op,omitempty"` // the figure a ladder rung measured
}

// tracer keeps spans in memory until the run ends. All of it lives in the
// benchmark: nothing inside the index is instrumented. A nil *tracer
// records nothing, so untraced runs share the code path.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

// maxSpans bounds the trace (≈ 56 MB) whatever the window length.
const maxSpans = 1 << 20

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	s.ID = int32(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span; end closes it.
func (t *tracer) begin(parent int32, name string) int32 {
	if t == nil {
		return 0
	}
	return t.add(span{Parent: parent, Name: name, StartNs: time.Since(t.t0).Nanoseconds()})
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// call records an already-timed top-level call under a segment span.
func (t *tracer) call(parent int32, kind uint8, op uint64, start, end time.Time) {
	t.add(span{Parent: parent, Name: apiName(kind), Op: op,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()})
}

// rung records one ladder measurement as a closed span.
func (t *tracer) rung(parent int32, name string, start time.Time, nsPerOp float64) {
	if t == nil {
		return
	}
	t.add(span{Parent: parent, Name: name, NsPerOp: nsPerOp,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: time.Since(t.t0).Nanoseconds()})
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int    `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: workload, Seed: seed, Dropped: t.dropped, Spans: t.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
