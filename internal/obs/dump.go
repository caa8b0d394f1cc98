package obs

import (
	"encoding/json"
	"fmt"
	"os"
)

// DumpSchema identifies the on-disk trace format; bump on breaking
// changes so ahimon --replay can refuse files it cannot read.
const DumpSchema = "ahi-obs/v1"

// Dump is the serializable state of one Observability bundle: flat
// metrics, the retained migration trace, and the per-epoch snapshots.
// ahibench -trace writes one; ahimon renders it (file replay or live
// from /dump.json).
type Dump struct {
	Schema     string `json:"schema"`
	Recorded   string `json:"recorded,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Scale      string `json:"scale,omitempty"`

	Metrics       map[string]float64 `json:"metrics"`
	Snapshots     []Snapshot         `json:"snapshots"`
	Trace         []MigrationEvent   `json:"trace"`
	TraceDropped  int64              `json:"trace_dropped,omitempty"`
	SnapsDropped  int64              `json:"snapshots_dropped,omitempty"`
	TraceTotal    int64              `json:"trace_total"`
	SnapshotTotal int64              `json:"snapshot_total"`

	// Flight-recorder extension (absent unless tracing was enabled; all
	// additive, so the schema tag stays v1 and old readers still parse).
	Ops        []OpEvent  `json:"ops,omitempty"`
	OpsTotal   int64      `json:"ops_total,omitempty"`
	OpsDropped int64      `json:"ops_dropped,omitempty"`
	SLO        *SLOReport `json:"slo,omitempty"`
}

// Dump captures the bundle's current state.
func (o *Observability) Dump() Dump {
	d := Dump{
		Schema:        DumpSchema,
		Metrics:       o.Reg.metricsSnapshot(),
		Snapshots:     o.Snaps.Snapshots(),
		Trace:         o.Trace.Events(),
		TraceDropped:  o.Trace.Dropped(),
		SnapsDropped:  o.Snaps.Dropped(),
		TraceTotal:    o.Trace.Total(),
		SnapshotTotal: o.Snaps.Total(),
	}
	if f := o.Flight; f != nil {
		d.Ops = f.Events()
		d.OpsTotal = f.Total()
		d.OpsDropped = f.Dropped()
		rep := f.SLOReport()
		d.SLO = &rep
	}
	return d
}

// WriteDump writes d as indented JSON to path.
func WriteDump(path string, d Dump) error {
	out, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// ReadDump reads and validates a dump file.
func ReadDump(path string) (Dump, error) {
	var d Dump
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != DumpSchema {
		return d, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, DumpSchema)
	}
	return d, nil
}

// Validate checks the structural invariants the bench smoke test and
// ahimon rely on: schema tag, monotone snapshot epochs per source, and
// non-negative event costs. It returns the first violation.
func (d *Dump) Validate() error {
	if d.Schema != DumpSchema {
		return fmt.Errorf("schema %q, want %q", d.Schema, DumpSchema)
	}
	if d.Metrics == nil {
		return fmt.Errorf("metrics map missing")
	}
	lastEpoch := map[string]int64{}
	for i := range d.Snapshots {
		s := &d.Snapshots[i]
		if last, ok := lastEpoch[s.Source]; ok && int64(s.Epoch) <= last {
			return fmt.Errorf("snapshot %d: epoch %d not increasing for source %q", i, s.Epoch, s.Source)
		}
		lastEpoch[s.Source] = int64(s.Epoch)
		if s.SampleSize < 0 || s.Skip < 0 || s.Migrations < 0 {
			return fmt.Errorf("snapshot %d: negative field", i)
		}
	}
	for i := range d.Trace {
		ev := &d.Trace[i]
		if ev.BuildNs < 0 || ev.QueueWaitNs < 0 {
			return fmt.Errorf("trace %d: negative cost", i)
		}
		if ev.To == "" {
			return fmt.Errorf("trace %d: missing target encoding", i)
		}
	}
	for i := range d.Ops {
		ev := &d.Ops[i]
		if ev.DurNs < 0 {
			return fmt.Errorf("op %d: negative duration", i)
		}
		if ev.Kind >= numOpKinds {
			return fmt.Errorf("op %d: unknown kind %d", i, ev.Kind)
		}
		if ev.Cause >= numCauses {
			return fmt.Errorf("op %d: unknown cause %d", i, ev.Cause)
		}
	}
	return nil
}
