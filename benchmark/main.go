// Command benchmark is the repository's performance benchmark: five
// closed-loop serving workloads against the public index surface, every
// result checked against an oracle, seven end-to-end figures per workload
// and, in a traced run, a by-construction cost ladder of the layers.
// See README.md in this directory; BENCHMARK.json at the repository root
// names the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{Scale: 1}
	workload := fs.String("workload", "all", "workload to run, or all")
	fs.Int64Var(&cfg.Seed, "seed", 1, "seed of data set and call streams (2 is the held-out seed)")
	fs.Float64Var(&cfg.Seconds, "seconds", runSeconds, "size of the measured window: the workload's frozen ops per second times this")
	runs := fs.Int("runs", 1, "times to run each workload (round-robin); -compare takes the median over them")
	trace := fs.Int("trace", 0, "1: traced run that prints the per-layer metrics and writes trace.json")
	fs.StringVar(&cfg.OutDir, "out", filepath.Join("benchmark", "out"), "directory for result.json and trace.json")
	fs.StringVar(&cfg.WalDir, "waldir", "", "parent directory of the write-wal log (default: -out)")
	compare := fs.Bool("compare", false, "compare two result.json files given as arguments")
	desc := fs.Bool("describe", false, "print the contract (the content of BENCHMARK.json) and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *desc {
		b, _ := json.MarshalIndent(describe(), "", "  ")
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare base.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || cfg.Seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	cfg.Trace = *trace != 0
	var run []*spec
	if *workload == "all" {
		run = specs
	} else if s := specByName(*workload); s != nil {
		run = []*spec{s}
	} else {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}

	res := resultFile{Env: environment()}
	code := 0
	// Round-robin, so that a slow minute of the host lands on one run of
	// each workload rather than on every run of one.
	for i := 0; i < *runs*len(run); i++ {
		s := run[i%len(run)]
		r, err := runWorkload(s, cfg, stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", s.name, err)
			return 1
		}
		res.Runs = append(res.Runs, r)
		if r.Failed > 0 {
			code = 1
		}
		// The driver reads the last line of one workload's output.
		line, _ := json.Marshal(r.summary())
		fmt.Fprintf(stdout, "%s\n", line)
	}
	if err := writeJSON(filepath.Join(cfg.OutDir, "result.json"), res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return code
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runWorkload is one run of one workload: set-up, warm-up, the measured
// window, verification and, when traced, the ladder.
func runWorkload(s *spec, cfg config, out io.Writer) (*runResult, error) {
	w := newWorld(s, cfg)
	defer w.teardown()
	res := &runResult{Workload: s.name, Seed: cfg.Seed, Traced: cfg.Trace, Clients: w.clients,
		Metrics: map[string]metric{}, Checks: map[string]float64{}, StageSeconds: map[string]float64{}}
	fmt.Fprintf(out, "== %s  seed=%d trace=%v clients=%d GOMAXPROCS=%d\n",
		s.name, cfg.Seed, cfg.Trace, w.clients, runtime.GOMAXPROCS(0))

	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	r := newRunner(w, tr)
	// setup_s is data generation, budget sizing from two plain bulk loads,
	// and the index build or open. Between the first and the rest, untimed,
	// everything the benchmark itself keeps is allocated, so the heap
	// reading after the window minus the one taken here is the index alone.
	t0 := time.Now()
	w.genData()
	d := time.Since(t0)
	w.genFresh()
	genNs := r.generate()
	heapBefore := heapAlloc()
	t0 = time.Now()
	if err := w.build(); err != nil {
		return nil, err
	}
	res.SetupSeconds = (d + time.Since(t0)).Seconds()
	lap := time.Now()
	// stage records the wall time since the previous stage ended.
	stage := func(name string) {
		res.StageSeconds[name] = time.Since(lap).Seconds()
		lap = time.Now()
	}
	res.Keys = len(w.keys)
	res.SuccinctBytes, res.GappedBytes, res.BudgetBytes = w.succinctBytes, w.gappedBytes, w.budget
	res.WalDir, res.WalFS = w.walDir, w.walFS
	var cacheBytes int64
	for _, t := range w.trees() {
		cacheBytes += t.CacheBytes()
	}
	res.CacheBytes = cacheBytes
	fmt.Fprintf(out, "  data %s keys=%d succinct=%d B gapped=%d B budget=%d B cache=%d B churn-live=%d\n",
		s.dataset, res.Keys, w.succinctBytes, w.gappedBytes, w.budget, cacheBytes, w.freshLive)
	if w.walDir != "" {
		fmt.Fprintf(out, "  wal dir %s on %s, interval fsync 5ms, checkpoint every 2^20 records\n", w.walDir, w.walFS)
	}

	r.attach()
	root := tr.begin(0, s.name)
	warm := tr.begin(root, "warm-up")
	r.warmUp(warm)
	tr.end(warm)
	_, res.WarmAdaptations = w.migrations()
	res.WarmOps = r.totalOps()
	atStart := w.counters(r)
	stage("warm_up")
	res.Segments = r.window(root)
	res.WindowOps = r.totalOps() - res.WarmOps
	stage("window")
	w.settle()
	res.Counters = windowCounters(atStart, w.counters(r))
	if s.index == durableTree {
		// A checkpoint the window triggered may still be running, and its
		// 16 B-per-pair snapshot is no part of the index. An explicit one
		// queues behind it; when it returns both snapshots are garbage.
		if err := w.tree.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint after the window: %w", err)
		}
	}
	heapAfter := heapAlloc()
	r.keepAlive()

	// Verification: on the durable tree, after a close and a recovery.
	var idx reader = w.sharded
	if w.tree != nil {
		if s.index == durableTree {
			if err := w.reopen(res); err != nil {
				return nil, err
			}
		}
		idx = w.tree.NewSession()
	}
	checks, bad := r.verify(idx, w.indexLen(), out)
	stage("verify")
	res.Attempted = r.totalOps() + checks
	res.Failed = r.failed() + bad
	res.Checks["cache_hit_rate"] = res.Counters["cache.hit_rate"]
	res.Checks["min_segment_migrations"] = float64(res.Segments[0].Migrations)
	for _, seg := range res.Segments {
		res.Checks["min_segment_migrations"] = min(res.Checks["min_segment_migrations"], float64(seg.Migrations))
	}

	res.endToEnd(float64(int64(heapAfter)-int64(heapBefore)) / float64(w.indexLen()))
	if cfg.Trace {
		lad := &ladder{w: w, r: r, tr: tr, parent: tr.begin(root, "ladder"), out: map[string]float64{}}
		rungs := lad.run()
		stage("ladder")
		tr.end(lad.parent)
		tr.end(root)
		rungs["bench.gen_ns_per_op"] = genNs
		res.perLayer(rungs, r)
		if err := tr.write(filepath.Join(cfg.OutDir, "trace.json"), s.name, cfg.Seed); err != nil {
			return nil, err
		}
	}
	res.print(out)
	return res, nil
}

// reopen closes the durable tree, recovers it from its directory and takes
// a timed checkpoint of the recovered tree.
func (w *world) reopen(res *runResult) error {
	w.tree.Close()
	t0 := time.Now()
	t, err := w.openDurable()
	if err != nil {
		w.tree = nil
		return err
	}
	w.tree = t
	rs := t.RecoveryStats()
	res.Counters["wal.recover_s"] = time.Since(t0).Seconds()
	res.Counters["wal.replayed_recs"] = float64(rs.Replayed)
	t0 = time.Now()
	if err := t.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint after recovery: %w", err)
	}
	res.Counters["wal.checkpoint_ms"] = float64(time.Since(t0).Microseconds()) / 1e3
	return nil
}

// cumulative names the counters that only ever grow; they are reported as
// what the window added, so the warm-up's cold start does not colour them.
var cumulative = []string{
	"btree.expansions", "btree.compactions",
	"cache.hits", "cache.misses", "cache.evictions", "cache.invalidations", "cache.rejected",
	"core.adaptations", "core.migrations", "core.backpressured", "core.inline_fallbacks",
	"shard.steals", "wal.fsyncs", "wal.fsync_ms_total", "wal.checkpoints",
}

// windowCounters turns two readings of counters into the window's figures.
func windowCounters(start, end map[string]float64) map[string]float64 {
	for _, k := range cumulative {
		end[k] -= start[k]
	}
	end["cache.hit_rate"] = 0
	if probes := end["cache.hits"] + end["cache.misses"]; probes > 0 {
		end["cache.hit_rate"] = end["cache.hits"] / probes
	}
	delete(end, "cache.hits")
	delete(end, "cache.misses")
	return end
}

// counters reads the exported statistics of every layer of the index.
func (w *world) counters(r *runner) map[string]float64 {
	c := map[string]float64{}
	trees := w.trees()
	for _, t := range trees {
		sc, pc, gc := t.Tree.LeafCounts()
		c["btree.leaves_succinct"] += float64(sc)
		c["btree.leaves_packed"] += float64(pc)
		c["btree.leaves_gapped"] += float64(gc)
		c["btree.expansions"] += float64(t.Tree.Expansions())
		c["btree.compactions"] += float64(t.Tree.Compactions())
		c["btree.index_bytes"] += float64(t.Tree.Bytes())
		cs := t.CacheStats()
		c["cache.hits"] += float64(cs.Hits)
		c["cache.misses"] += float64(cs.Misses)
		c["cache.evictions"] += float64(cs.Evictions)
		c["cache.invalidations"] += float64(cs.Invalidations)
		c["cache.rejected"] += float64(cs.Rejected)
		c["cache.bytes"] += float64(t.CacheBytes())
		m := t.Mgr
		c["core.adaptations"] += float64(m.Adaptations())
		c["core.migrations"] += float64(m.Migrations())
		c["core.skip_length"] += float64(m.SkipLength()) / float64(len(trees))
		c["core.sample_size"] += float64(m.SampleSize()) / float64(len(trees))
		c["core.tracked_units"] += float64(m.TrackedUnits())
		c["core.manager_bytes"] += float64(m.Bytes())
		c["core.backpressured"] += float64(m.Backpressured())
		c["core.inline_fallbacks"] += float64(m.InlineFallbacks())
		c["core.last_drain_us"] = max(c["core.last_drain_us"], float64(m.LastDrainNs())/1e3)
	}
	c["shard.ops_imbalance"], c["shard.steals"] = 0, 0
	if sh := w.sharded; sh != nil {
		var sum, top float64
		for i := 0; i < sh.Shards(); i++ {
			o := float64(sh.Ops(i))
			sum, top = sum+o, max(top, o)
		}
		if sum > 0 {
			c["shard.ops_imbalance"] = top / (sum / float64(sh.Shards()))
		}
		c["shard.steals"] = float64(sh.Steals())
	}
	for _, k := range []string{"wal.fsyncs", "wal.fsync_ms_total", "wal.bytes_per_user_byte", "wal.checkpoints",
		"wal.checkpoint_ms", "wal.recover_s", "wal.replayed_recs"} {
		c[k] = 0
	}
	if w.spec.index == durableTree {
		ws := w.tree.WALStats()
		c["wal.fsyncs"] = float64(ws.Fsyncs.Load())
		c["wal.fsync_ms_total"] = float64(ws.FsyncNsTotal.Load()) / 1e6
		c["wal.checkpoints"] = float64(ws.Checkpoints.Load())
		cl := r.clients[0]
		user := 16*(int64(len(w.keys))+cl.writes) + 8*int64(cl.del)
		c["wal.bytes_per_user_byte"] = float64(ws.AppendedBytes.Load()) / float64(user)
	}
	return c
}

// sortedKeys is the print order of a metric map.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
