// Command ahimon inspects the adaptation framework's observability dump:
// it replays a trace file written by `ahibench -trace`, or attaches to a
// running process serving the debug endpoint (`ahibench -obs addr`) and
// re-renders the live state every interval.
//
// Usage:
//
//	ahimon -replay /tmp/trace.json
//	ahimon -replay /tmp/trace.json -explain-tail
//	ahimon -attach localhost:6060 -interval 2s
//	ahimon -attach localhost:6060 -once
//	ahimon -attach localhost:6060 -explain-tail -quantile 0.99
//
// -explain-tail ranks what the recorded ops beyond the chosen latency
// quantile were waiting on (flight-recorder cause tags), linking
// migration-overlap exemplars into the migration trace. Attach mode polls
// incrementally: after the first /dump.json seed, only trace and op
// events newer than the last seen seq are fetched (?since=).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"ahi/internal/obs"
)

func main() {
	var (
		replay   = flag.String("replay", "", "render a dump file written by ahibench -trace")
		attach   = flag.String("attach", "", "poll a live /dump.json endpoint (host:port or URL)")
		interval = flag.Duration("interval", 2*time.Second, "poll interval with -attach")
		once     = flag.Bool("once", false, "with -attach: render one snapshot and exit")
		events   = flag.Int("events", 12, "how many trailing trace events to show")
		tailMode = flag.Bool("explain-tail", false, "rank the causes of the latency tail from recorded ops")
		quantile = flag.Float64("quantile", 0.999, "with -explain-tail: the tail cut quantile")
	)
	flag.Parse()

	switch {
	case *replay != "":
		d, err := obs.ReadDump(*replay)
		if err != nil {
			fatal(err)
		}
		if err := d.Validate(); err != nil {
			fatal(fmt.Errorf("%s: %w", *replay, err))
		}
		if *tailMode {
			renderExplainTail(os.Stdout, &d, *quantile)
			return
		}
		render(os.Stdout, &d, *events)
	case *attach != "":
		base := *attach
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		st := &attachState{base: strings.TrimRight(base, "/")}
		for {
			if err := st.poll(); err != nil {
				fatal(err)
			}
			if !*once {
				fmt.Print("\x1b[H\x1b[2J") // clear, cursor home
			}
			fmt.Printf("ahimon — %s — %s\n\n", st.base, time.Now().Format(time.TimeOnly))
			if *tailMode {
				renderExplainTail(os.Stdout, st.d, *quantile)
			} else {
				render(os.Stdout, st.d, *events)
			}
			if *once {
				return
			}
			time.Sleep(*interval)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func fetch(url string) (*obs.Dump, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: HTTP %s", url, resp.Status)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, err
	}
	var d obs.Dump
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", url, err)
	}
	if d.Schema != obs.DumpSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", url, d.Schema, obs.DumpSchema)
	}
	return &d, nil
}

// render prints the dump: per-source epoch convergence, the migration
// cost/trigger summary, and the trailing trace events.
func render(w io.Writer, d *obs.Dump, tail int) {
	if d.Experiment != "" || d.Scale != "" || d.Recorded != "" {
		fmt.Fprintf(w, "experiment=%s scale=%s recorded=%s\n\n", d.Experiment, d.Scale, d.Recorded)
	}
	bySource := map[string][]obs.Snapshot{}
	var sources []string
	for _, s := range d.Snapshots {
		if _, seen := bySource[s.Source]; !seen {
			sources = append(sources, s.Source)
		}
		bySource[s.Source] = append(bySource[s.Source], s)
	}
	sort.Strings(sources)
	for _, src := range sources {
		renderEpochs(w, src, bySource[src])
	}
	renderCache(w, d)
	renderOps(w, d)
	renderSLO(w, d)
	renderTrace(w, d, tail)
}

// renderCache summarizes the read-path cache metrics per source: hit rate, admission/eviction churn, invalidations (the writes
// that found their key cached) and updates (those that kept it), and the
// bytes the cache charges against the memory budget. Silent when no cache
// metrics are present (CacheFraction unset).
func renderCache(w io.Writer, d *obs.Dump) {
	type row struct {
		hits, misses, admitted, rejected  float64
		invalidations, updated, evictions float64
		bytes                             float64
	}
	rows := map[string]*row{}
	get := func(src string) *row {
		r := rows[src]
		if r == nil {
			r = &row{}
			rows[src] = r
		}
		return r
	}
	for name, v := range d.Metrics {
		base, src := splitMetric(name)
		switch base {
		case "ahi_cache_hits_total":
			get(src).hits = v
		case "ahi_cache_misses_total":
			get(src).misses = v
		case "ahi_cache_admitted_total":
			get(src).admitted = v
		case "ahi_cache_rejected_total":
			get(src).rejected = v
		case "ahi_cache_invalidations_total":
			get(src).invalidations = v
		case "ahi_cache_updated_total":
			get(src).updated = v
		case "ahi_cache_evictions_total":
			get(src).evictions = v
		case "ahi_cache_bytes":
			get(src).bytes = v
		}
	}
	if len(rows) == 0 {
		return
	}
	var srcs []string
	for s := range rows {
		srcs = append(srcs, s)
	}
	sort.Strings(srcs)
	fmt.Fprintln(w, "== read-path cache ==")
	fmt.Fprintf(w, "%-10s %9s %7s %9s %9s %9s %9s %9s %9s\n",
		"source", "hits", "rate", "misses", "admit", "reject", "inval", "update", "evict")
	for _, s := range srcs {
		r := rows[s]
		name := s
		if name == "" {
			name = "(default)"
		}
		rate := "-"
		if tot := r.hits + r.misses; tot > 0 {
			rate = fmt.Sprintf("%5.1f%%", 100*r.hits/tot)
		}
		fmt.Fprintf(w, "%-10s %9.0f %7s %9.0f %9.0f %9.0f %9.0f %9.0f %9.0f\n",
			name, r.hits, rate, r.misses, r.admitted, r.rejected,
			r.invalidations, r.updated, r.evictions)
		if r.bytes > 0 {
			fmt.Fprintf(w, "%-10s cache footprint %s (charged against the memory budget)\n",
				"", mib(int64(r.bytes)))
		}
	}
	fmt.Fprintln(w)
}

// splitMetric splits a rendered metric key like `name{source="s0"}` into
// its base name and source label ("" when unlabeled).
func splitMetric(name string) (base, src string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	base = name[:i]
	rest := name[i:]
	const tag = `source="`
	j := strings.Index(rest, tag)
	if j < 0 {
		return base, ""
	}
	rest = rest[j+len(tag):]
	if k := strings.IndexByte(rest, '"'); k >= 0 {
		return base, rest[:k]
	}
	return base, ""
}

func renderEpochs(w io.Writer, src string, snaps []obs.Snapshot) {
	name := src
	if name == "" {
		name = "(default)"
	}
	fmt.Fprintf(w, "== %s: %d epochs ==\n", name, len(snaps))
	fmt.Fprintf(w, "%5s %6s %7s %5s %5s %5s %5s %5s %5s %6s  %s\n",
		"epoch", "skip", "sample", "hot", "migr", "queue", "bpres", "coal", "dedup", "track", "encodings (units)")
	for i := range snaps {
		s := &snaps[i]
		fmt.Fprintf(w, "%5d %6d %7d %5d %5d %5d %5d %5d %5d %6d  %s\n",
			s.Epoch, s.Skip, s.SampleSize, s.Hot, s.Migrations, s.Queued,
			s.Backpressured, s.Coalesced, s.Deduped, s.TrackedUnits, encodingBar(s.Encodings))
	}
	last := &snaps[len(snaps)-1]
	if last.BudgetBytes > 0 {
		if last.ChargedBytes > 0 {
			fmt.Fprintf(w, "budget %s used %s cache %s headroom %s\n",
				mib(last.BudgetBytes), mib(last.UsedBytes),
				mib(last.ChargedBytes), mib(last.Headroom()))
		} else {
			fmt.Fprintf(w, "budget %s used %s headroom %s\n",
				mib(last.BudgetBytes), mib(last.UsedBytes), mib(last.Headroom()))
		}
	}
	fmt.Fprintln(w)
}

// encodingBar renders the unit distribution, e.g.
// "succinct:312 packed:12 gapped:76".
func encodingBar(enc []obs.EncodingClass) string {
	if len(enc) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(enc))
	for _, e := range enc {
		parts = append(parts, fmt.Sprintf("%s:%d", e.Name, e.Units))
	}
	return strings.Join(parts, " ")
}

func renderTrace(w io.Writer, d *obs.Dump, tail int) {
	if len(d.Trace) == 0 {
		fmt.Fprintln(w, "== migration trace: empty ==")
		return
	}
	type agg struct {
		n, fail         int
		buildNs, waitNs int64
	}
	byTrigger := map[string]*agg{}
	for i := range d.Trace {
		ev := &d.Trace[i]
		a := byTrigger[ev.Trigger.String()]
		if a == nil {
			a = &agg{}
			byTrigger[ev.Trigger.String()] = a
		}
		a.n++
		if !ev.OK {
			a.fail++
		}
		a.buildNs += ev.BuildNs
		a.waitNs += ev.QueueWaitNs
	}
	fmt.Fprintf(w, "== migration trace: %d events (%d total, %d dropped) ==\n",
		len(d.Trace), d.TraceTotal, d.TraceDropped)
	var trigs []string
	for t := range byTrigger {
		trigs = append(trigs, t)
	}
	sort.Strings(trigs)
	fmt.Fprintf(w, "%-8s %6s %6s %12s %12s\n", "trigger", "count", "failed", "avg build", "avg wait")
	for _, t := range trigs {
		a := byTrigger[t]
		fmt.Fprintf(w, "%-8s %6d %6d %12s %12s\n", t, a.n, a.fail,
			time.Duration(a.buildNs/int64(a.n)), time.Duration(a.waitNs/int64(a.n)))
	}
	if tail > len(d.Trace) {
		tail = len(d.Trace)
	}
	if tail > 0 {
		fmt.Fprintf(w, "\nlast %d events:\n", tail)
		for _, ev := range d.Trace[len(d.Trace)-tail:] {
			mode := "inline"
			if ev.Async {
				mode = "async"
			}
			status := "ok"
			if !ev.OK {
				status = "FAIL"
			}
			fmt.Fprintf(w, "  #%-6d epoch %-4d %-8s %-8s unit %016x %s -> %s (%s, build %s) %s\n",
				ev.Seq, ev.Epoch, ev.Source, ev.Trigger, ev.Unit, ev.From, ev.To,
				mode, time.Duration(ev.BuildNs), status)
		}
	}
}

func mib(b int64) string { return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20)) }
