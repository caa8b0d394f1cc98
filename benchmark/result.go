package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// resultFile is the one schema of everything the command writes about a
// run: benchmark/out/result.json holds it, -compare reads two of them.
type resultFile struct {
	Env  env          `json:"env"`
	Runs []*runResult `json:"runs"`
}

// env records where the numbers were taken.
type env struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func environment() env {
	e := env{Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUModel: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	return e
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// metric is one named figure. Lo and Hi are its in-run spread: the range
// over the window's segments.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Traced   bool   `json:"traced"`
	Clients  int    `json:"clients"`

	Keys          int    `json:"keys"`
	SuccinctBytes int64  `json:"succinct_bytes"`
	GappedBytes   int64  `json:"gapped_bytes"`
	BudgetBytes   int64  `json:"budget_bytes"`
	CacheBytes    int64  `json:"cache_bytes"`
	WalDir        string `json:"wal_dir,omitempty"`
	WalFS         string `json:"wal_fs,omitempty"`

	SetupSeconds float64 `json:"setup_s"`
	// StageSeconds is the wall time of warm_up, window, verify (settling,
	// heap reading and recovery included) and ladder.
	StageSeconds    map[string]float64 `json:"stage_seconds"`
	WarmOps         int64              `json:"warm_ops"`
	WarmAdaptations int64              `json:"warm_adaptations"`
	WindowOps       int64              `json:"window_ops"`
	Segments        []segmentStat      `json:"segments"`

	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`

	// Metrics holds the end-to-end metrics of an untraced run or the
	// per-layer metrics of a traced one; Counters the raw layer counters
	// read at the end of either.
	Metrics  map[string]metric  `json:"metrics"`
	Counters map[string]float64 `json:"counters"`
	// Checks are the figures that show a workload stresses the layer it
	// was chosen for (README.md, "What each workload must show").
	Checks map[string]float64 `json:"checks"`
}

func unitOf(name string) string {
	if d := defOf(perLayerMetrics, name); d != nil {
		return d.Unit
	}
	return "count"
}

func (r *runResult) set(name, unit string, xs []float64) {
	lo, hi := minMax(xs)
	r.Metrics[name] = metric{Value: median(xs), Unit: unit, Lo: lo, Hi: hi}
}

func column(segs []segmentStat, f func(*segmentStat) float64) []float64 {
	xs := make([]float64, len(segs))
	for i := range segs {
		xs[i] = f(&segs[i])
	}
	return xs
}

// endToEnd fills the end-to-end metrics: each timing is the median of the
// window's segment values.
func (r *runResult) endToEnd(heapBytesPerKey float64) {
	if r.Traced {
		return
	}
	r.set("setup_s", "s", []float64{r.SetupSeconds})
	r.set("ops_per_s", "1/s", column(r.Segments, func(s *segmentStat) float64 { return s.OpsPerS }))
	r.set("read_p50_ns", "ns", column(r.Segments, func(s *segmentStat) float64 { return s.ReadP50 }))
	r.set("read_p99_ns", "ns", column(r.Segments, func(s *segmentStat) float64 { return s.ReadP99 }))
	r.set("write_p50_ns", "ns", column(r.Segments, func(s *segmentStat) float64 { return s.WriteP50 }))
	r.set("write_p99_ns", "ns", column(r.Segments, func(s *segmentStat) float64 { return s.WriteP99 }))
	r.set("heap_bytes_per_key", "B/key", []float64{heapBytesPerKey})
}

// perLayer fills the per-layer metrics of a traced run: the ladder's
// rungs, the layer counters, and what the window itself observed.
func (r *runResult) perLayer(rungs map[string]float64, run *runner) {
	for k, v := range r.Counters {
		r.Metrics[k] = metric{Value: v, Unit: unitOf(k), Lo: v, Hi: v}
	}
	for k, v := range rungs {
		r.Metrics[k] = metric{Value: v, Unit: unitOf(k), Lo: v, Hi: v}
	}
	r.set("shard.migration_backlog_max", "count",
		[]float64{float64(run.backlogMax())})
	over := column(r.Segments, func(s *segmentStat) float64 { return s.OvershootPct })
	_, worst := minMax(over)
	r.Metrics["btree.budget_overshoot_pct"] = metric{Value: worst, Unit: "%", Lo: over[0], Hi: worst}
	// Throughput with the harness's spans on against off, from the
	// interleaved blocks of this same window.
	var ops, ns [2]float64
	for _, c := range run.clients {
		for b := range ops {
			ops[b] += float64(c.abOps[b])
			ns[b] += float64(c.abNs[b])
		}
	}
	overhead := 0.0
	if ops[0] > 0 && ops[1] > 0 {
		overhead = 100 * (1 - (ops[1]/ns[1])/(ops[0]/ns[0]))
	}
	r.Metrics["bench.trace_overhead_pct"] = metric{Value: overhead, Unit: "%", Lo: overhead, Hi: overhead}

	// Share of the window's read time that the ScanBatch rung's cost per
	// pair accounts for (every read call is timed where this is not 0).
	var pairs, readNs float64
	for _, c := range run.clients {
		pairs += float64(c.scanPairs - c.warmScanPairs)
	}
	for _, s := range r.Segments {
		readNs += float64(s.ReadNs)
	}
	r.Checks["scan_share_of_read_time"] = pairs * rungs["btree.scan_batch_ns_per_pair"] / readNs
}

// summary is the line the driver reads: exactly correct, attempted, failed
// and the metrics by name.
type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) summary() summary {
	s := summary{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]summaryValue{}}
	for k, m := range r.Metrics {
		s.Metrics[k] = summaryValue{Value: m.Value, Unit: m.Unit}
	}
	return s
}

func (r *runResult) print(out io.Writer) {
	fmt.Fprintf(out, "  set-up %.3f s; warm-up %d ops, %d adaptation phases, %.1f s; window %d ops, %.1f s; verification %.1f s\n",
		r.SetupSeconds, r.WarmOps, r.WarmAdaptations, r.StageSeconds["warm_up"], r.WindowOps, r.StageSeconds["window"], r.StageSeconds["verify"])
	fmt.Fprintln(out, "  seg      ops/s   read p50/p99/p999/max ns (samples)        write p50/p99/p999/max ns (samples)   migr adapt backlog")
	for i, s := range r.Segments {
		fmt.Fprintf(out, "  %d %12.0f   %8.0f %8.0f %9.0f %10.0f (%d)   %8.0f %8.0f %9.0f %10.0f (%d)   %d %d %d\n",
			i, s.OpsPerS, s.ReadP50, s.ReadP99, s.ReadP999, s.ReadMax, s.ReadSamples,
			s.WriteP50, s.WriteP99, s.WriteP999, s.WriteMax, s.WriteSamples, s.Migrations, s.Adaptations, s.Backlog)
	}
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		if m.Lo != m.Hi {
			fmt.Fprintf(out, "  %-36s %16.4f %-6s [%.4f .. %.4f]\n", k, m.Value, m.Unit, m.Lo, m.Hi)
		} else {
			fmt.Fprintf(out, "  %-36s %16.4f %s\n", k, m.Value, m.Unit)
		}
	}
	if !r.Traced {
		for _, k := range sortedKeys(r.Counters) {
			fmt.Fprintf(out, "  counter %-28s %16.4f\n", k, r.Counters[k])
		}
	}
	for _, k := range sortedKeys(r.Checks) {
		fmt.Fprintf(out, "  check %-30s %16.4f\n", k, r.Checks[k])
	}
	share := float64(r.Failed) / float64(r.Attempted)
	fmt.Fprintf(out, "  failed_share %g (%d of %d checked ops)\n", share, r.Failed, r.Attempted)
}
