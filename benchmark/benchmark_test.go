package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestContract holds BENCHMARK.json to what the program emits and to the
// limits the driver enforces on the file.
func TestContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	b, _ := json.Marshal(describe())
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from `benchmark -describe`; regenerate it")
	}
	c := describe()
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d characters or has a line break", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 || m.MedianBound <= 0 || m.MedianBound > m.Bound {
			t.Errorf("end-to-end %s: unit %q bound %v median bound %v", m.Name, m.Unit, m.Bound, m.MedianBound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing from end_to_end")
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
	}
	// The issue allows a noisy cell a bound of at most 0.10, and at most
	// three cells to be diagnostic.
	diagnostic := 0
	for at, n := range noisyCells {
		def := defOf(endToEndMetrics, at.metric)
		if specByName(at.workload) == nil || def == nil || n.Bound < def.MedianBound || n.Bound > 0.10 || n.Spread <= 0 {
			t.Errorf("noisy cell %v: %+v", at, n)
		}
		if n.Diagnostic {
			diagnostic++
		}
	}
	if diagnostic > 3 {
		t.Errorf("%d diagnostic cells, at most 3 allowed", diagnostic)
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 || len(c.EndToEnd) > 16 || len(c.PerLayer) > 128 || len(raw) > 64<<10 {
		t.Error("BENCHMARK.json is outside the driver's size limits")
	}
}

// smokeConfig is 1/100 of the data set, warm-up and streams, with a window
// of 60 reference seconds so that it still holds adaptation phases.
func smokeConfig(t *testing.T) config {
	return config{Seed: 1, Seconds: 60, Scale: 0.01, OutDir: t.TempDir()}
}

// TestSmoke runs every workload at 1/100 scale, untraced and traced, and
// checks that no op fails, that every metric BENCHMARK.json names comes out
// under its unit, and that the trace nests.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			cfg := smokeConfig(t)
			r, err := runWorkload(s, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r, endToEndMetrics)
			for _, m := range endToEndMetrics {
				if r.Metrics[m.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, r.Metrics[m.Name].Value)
				}
			}

			cfg.Trace = true
			r, err = runWorkload(s, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, r, perLayerMetrics)
			checkTrace(t, filepath.Join(cfg.OutDir, "trace.json"), s.name)
		})
	}
}

func checkRun(t *testing.T, r *runResult, defs []metricDef) {
	t.Helper()
	if r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("%d of %d ops failed", r.Failed, r.Attempted)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics, want %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: present=%v unit=%q, want unit %q", d.Name, ok, m.Unit, d.Unit)
		}
	}
	// The line the driver parses has exactly these four keys.
	b, _ := json.Marshal(r.summary())
	var line map[string]json.RawMessage
	if err := json.Unmarshal(b, &line); err != nil || len(line) != 4 {
		t.Errorf("summary line %s", b)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("summary line lacks %q", k)
		}
	}
}

// checkTrace verifies the span tree: workload → segment → call and
// workload → ladder → rung, every child inside its parent's interval.
func checkTrace(t *testing.T, path, workload string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatal(err)
	}
	byID := map[int32]span{}
	for _, s := range tf.Spans {
		byID[s.ID] = s
	}
	var calls, rungs, segs int
	for _, s := range tf.Spans {
		if s.Parent == 0 {
			if s.Name != workload {
				t.Errorf("root span %q, want %q", s.Name, workload)
			}
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s) has unknown parent %d", s.ID, s.Name, s.Parent)
		}
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.EndNs < s.StartNs {
			t.Errorf("span %d (%s) [%d,%d] is outside its parent %s [%d,%d]", s.ID, s.Name, s.StartNs, s.EndNs, p.Name, p.StartNs, p.EndNs)
		}
		switch {
		case strings.HasPrefix(p.Name, "segment "):
			calls++
		case p.Name == "ladder":
			rungs++
		case strings.HasPrefix(s.Name, "segment "):
			segs++
		}
	}
	if segs != segments || calls == 0 || rungs < 30 {
		t.Errorf("trace has %d segments, %d call spans, %d rung spans", segs, calls, rungs)
	}
}

// TestDeterministicCounters: the counters that do not depend on a clock
// repeat exactly between two same-seed runs of a single-client workload.
func TestDeterministicCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four workloads twice")
	}
	stable := []string{"btree.expansions", "btree.compactions", "core.adaptations", "core.migrations",
		"cache.hit_rate", "cache.evictions", "wal.replayed_recs"}
	for _, s := range specs {
		if s.clients(2) != 1 {
			continue
		}
		t.Run(s.name, func(t *testing.T) {
			var runs [2]*runResult
			for i := range runs {
				r, err := runWorkload(s, smokeConfig(t), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				runs[i] = r
			}
			for _, k := range stable {
				if a, b := runs[0].Counters[k], runs[1].Counters[k]; a != b {
					t.Errorf("%s: %v then %v", k, a, b)
				}
			}
			if runs[0].Counters["core.adaptations"] == 0 {
				t.Error("no adaptation phase ran: the check is vacuous")
			}
		})
	}
}

// TestCorruptValueFails plants one wrong value in the data set: the sweep
// must count it as failed ops and the run must report itself incorrect.
func TestCorruptValueFails(t *testing.T) {
	cfg := config{Seed: 1, Seconds: 15, Scale: 0.002, OutDir: t.TempDir(), corrupt: true}
	var log bytes.Buffer
	r, err := runWorkload(specByName("point-cold"), cfg, &log)
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed == 0 || r.summary().Correct {
		t.Errorf("corrupted value went unnoticed: failed=%d", r.Failed)
	}
	if !strings.Contains(log.String(), "verify:") {
		t.Error("the sweep did not report the mismatch")
	}
}

func TestUnknownWorkloadExitsNonZero(t *testing.T) {
	if code := realMain([]string{"-workload", "nope"}, io.Discard, io.Discard); code == 0 {
		t.Error("unknown workload exited 0")
	}
}

func TestVerdict(t *testing.T) {
	lower := &metricDef{Name: "read_p50_ns", Better: "lower"}
	higher := &metricDef{Name: "ops_per_s", Better: "higher"}
	m := func(v, lo, hi float64) metric { return metric{Value: v, Lo: lo, Hi: hi} }
	for _, c := range []struct {
		def       *metricDef
		base, cur metric
		want      string
	}{
		{lower, m(100, 98, 102), m(103, 101, 105), "same"},
		{lower, m(100, 98, 102), m(120, 118, 122), "worse"},
		{lower, m(100, 98, 102), m(80, 78, 82), "better"},
		{lower, m(100, 90, 115), m(110, 105, 120), "unresolved"},
		{higher, m(100, 98, 102), m(80, 78, 82), "worse"},
		{higher, m(100, 98, 102), m(120, 118, 122), "better"},
	} {
		if _, got := verdict(c.def, 0.05, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.def.Name, c.base.Value, c.cur.Value, got, c.want)
		}
	}
}

// TestComparePools: with several runs a side, -compare judges medians, and
// one slow run widens the spread (unresolved) instead of reading as worse.
func TestComparePools(t *testing.T) {
	side := func(ops ...float64) *resultFile {
		f := &resultFile{}
		for _, v := range ops {
			r := &runResult{Workload: "point-hot", Attempted: 1, Metrics: map[string]metric{}}
			for _, d := range endToEndMetrics {
				r.Metrics[d.Name] = metric{Value: 100, Unit: d.Unit, Lo: 99, Hi: 101}
			}
			r.Metrics["ops_per_s"] = metric{Value: v, Unit: "1/s", Lo: v * 0.99, Hi: v * 1.01}
			f.Runs = append(f.Runs, r)
		}
		return f
	}
	var out bytes.Buffer
	if code := compareResults(side(1000, 1010, 990), side(1005, 600, 995), &out); code != 0 {
		t.Errorf("one slow run of three read as a regression:\n%s", out.String())
	}
	out.Reset()
	if code := compareResults(side(1000, 1010, 990), side(600, 610, 590), &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("three slow runs of three did not read as worse (exit %d):\n%s", code, out.String())
	}
	// The same regression on a diagnostic cell is printed but does not fail.
	at := cell{"point-hot", "ops_per_s"}
	old, had := noisyCells[at]
	noisyCells[at] = noisyCell{Bound: 0.10, Diagnostic: true, Spread: 0.2}
	defer func() {
		if delete(noisyCells, at); had {
			noisyCells[at] = old
		}
	}()
	out.Reset()
	if code := compareResults(side(1000, 1010, 990), side(600, 610, 590), &out); code != 0 || !strings.Contains(out.String(), "worse (diagnostic)") {
		t.Errorf("a worse diagnostic cell failed the comparison or went unprinted (exit %d):\n%s", code, out.String())
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	for v := int64(1); v <= 100_000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99, 0.999} {
		got, want := h.quantile(q), q*100_000
		if got < want*0.99 || got > want*1.01 {
			t.Errorf("q%v = %v, want %v within 1%%", q, got, want)
		}
	}
	for _, v := range []uint64{0, 1, 127, 128, 255, 256, 1000, 1 << 20, 1 << 39} {
		lo, hi := histBounds(histIndex(v))
		if float64(v) < lo || float64(v) >= hi {
			t.Errorf("value %d falls outside its bucket [%v, %v)", v, lo, hi)
		}
	}
}
