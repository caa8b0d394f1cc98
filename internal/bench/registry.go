package bench

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one runnable table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(sc Scale, w io.Writer) error
}

// Registry lists every experiment by id ("fig12", "tbl1", ...). With csv
// set, tables render as CSV (series sparklines are suppressed).
func Registry(repoRoot string, csv bool) map[string]Experiment {
	render := func(t Table, w io.Writer) {
		if csv {
			t.RenderCSV(w)
			return
		}
		t.Render(w)
	}
	wrap := func(id, title string, f func(Scale) Table) Experiment {
		return Experiment{ID: id, Title: title, Run: func(sc Scale, w io.Writer) error {
			render(f(sc), w)
			return nil
		}}
	}
	reg := map[string]Experiment{}
	add := func(e Experiment) { reg[e.ID] = e }

	add(wrap("fig2", "Eq.(1) sample sizes & top-k precision", func(sc Scale) Table { _, t := RunFig2(sc); return t }))
	add(wrap("fig2x", "appendix: fig2 for other distributions", func(sc Scale) Table { _, t := RunFig2Appendix(sc); return t }))
	add(wrap("fig3", "storage-device leaf access latencies", func(sc Scale) Table { _, t := RunFig3(sc); return t }))
	add(wrap("fig5", "sampling overhead vs skip length", func(sc Scale) Table { _, t := RunFig5(sc); return t }))
	add(wrap("fig5x", "appendix: fig5 for other workloads", func(sc Scale) Table { _, t := RunFig5Appendix(sc); return t }))
	add(wrap("fig6", "classification cost & map size", func(sc Scale) Table { _, t := RunFig6(sc); return t }))
	add(wrap("tbl1", "leaf encodings", func(sc Scale) Table { _, t := RunTable1(sc); return t }))
	add(wrap("fig9", "migration cost matrix", func(sc Scale) Table { _, t := RunFig9(sc); return t }))
	add(wrap("tbl2", "trie encodings", func(sc Scale) Table { _, t := RunTable2(sc); return t }))
	add(Experiment{ID: "fig12", Title: "W1 phases on OSM", Run: func(sc Scale, w io.Writer) error {
		res, t := RunFig12(sc)
		render(t, w)
		if !csv {
			renderSeries(w, "AHI-BTree", res.Series)
			fmt.Fprintln(w)
		}
		return nil
	}})
	add(wrap("fig13", "cost function scatter", func(sc Scale) Table { _, t := RunFig13(sc); return t }))
	add(wrap("fig14", "skew sweep", func(sc Scale) Table { _, t := RunFig14(sc); return t }))
	add(wrap("fig15", "memory budget sweep", func(sc Scale) Table { _, t := RunFig15(sc); return t }))
	add(Experiment{ID: "fig16", Title: "write/scan phases", Run: func(sc Scale, w io.Writer) error {
		res, t := RunFig16(sc)
		render(t, w)
		if !csv {
			for _, v := range []TreeVariant{VariantAHI, VariantSuccinct, VariantGapped} {
				renderSeries(w, string(v), res.Series[v])
			}
			fmt.Fprintln(w)
		}
		return nil
	}})
	add(wrap("fig17", "dual-stage comparison", func(sc Scale) Table { _, t := RunFig17(sc); return t }))
	add(wrap("fig18", "GS vs TLS threads", func(sc Scale) Table { _, t := RunFig18(sc); return t }))
	add(wrap("fig19", "emails point & scan", func(sc Scale) Table { _, t := RunFig19(sc); return t }))
	add(Experiment{ID: "fig20", Title: "prefix-random phase shift", Run: func(sc Scale, w io.Writer) error {
		res, t := RunFig20(sc)
		render(t, w)
		if !csv {
			for _, name := range []string{"AHI-Trie", "ART", "FST", "Pre-Trained"} {
				renderSeries(w, name, res.Series[name])
			}
			fmt.Fprintf(w, "adaptations: %d (skip lengths: ", len(res.Adaptations))
			for i, ai := range res.Adaptations {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprint(w, ai.NewSkip)
			}
			fmt.Fprintln(w, ")")
			fmt.Fprintln(w)
		}
		return nil
	}})
	add(Experiment{ID: "tbl3", Title: "workload definitions", Run: func(sc Scale, w io.Writer) error {
		render(RunTable3(), w)
		return nil
	}})
	add(Experiment{ID: "tbl4", Title: "lines-of-code accounting", Run: func(sc Scale, w io.Writer) error {
		_, t, err := RunTable4(repoRoot)
		if err != nil {
			return err
		}
		render(t, w)
		return nil
	}})
	add(wrap("abl-bloom", "ablation: bloom filter", func(sc Scale) Table { _, t := RunAblationBloom(sc); return t }))
	add(wrap("abl-skip", "ablation: adaptive skip", func(sc Scale) Table { _, t := RunAblationAdaptiveSkip(sc); return t }))
	add(wrap("abl-eager", "ablation: eager expand", func(sc Scale) Table { _, t := RunAblationEagerExpand(sc); return t }))
	add(wrap("abl-history", "ablation: history byte", func(sc Scale) Table { _, t := RunAblationHistory(sc); return t }))
	add(wrap("abl-decentral", "ablation: centralized vs decentralized tracking", func(sc Scale) Table { _, t := RunAblationDecentralized(sc); return t }))
	add(wrap("micro", "microbenchmarks: adaptation stall, inline vs async migrations", func(sc Scale) Table { _, t := RunMicro(sc); return t }))
	add(wrap("ext-ycsb", "extension: YCSB core workloads A-F", func(sc Scale) Table { _, t := RunYCSB(sc); return t }))
	add(Experiment{ID: "scaling", Title: "multi-core scaling sweep (procs x shards x clients)", Run: func(sc Scale, w io.Writer) error {
		res, t := RunScaling(sc)
		render(t, w)
		if !csv {
			fmt.Fprintf(w, "migrations: backpressured=%d\n\n", res.Backpressured)
		}
		return nil
	}})
	add(Experiment{ID: "cache", Title: "read-path result cache", Run: func(sc Scale, w io.Writer) error {
		res, t := RunCache(sc)
		render(t, w)
		if !csv {
			renderCacheReplay(w, res.ReplayRows)
			fmt.Fprintln(w)
		}
		return nil
	}})
	add(wrap("ext-paging", "extension: paging under a DRAM ceiling", func(sc Scale) Table { _, t := RunPaging(sc); return t }))
	add(Experiment{ID: "durability", Title: "WAL fsync policies, group commit & recovery", Run: func(sc Scale, w io.Writer) error {
		res, t := RunDurability(sc)
		render(t, w)
		if !csv {
			renderDurDevices(w, res.Devices)
		}
		return nil
	}})
	return reg
}

// IDs returns all experiment ids in stable order.
func IDs(reg map[string]Experiment) []string {
	ids := make([]string, 0, len(reg))
	for id := range reg {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// RunAll executes every experiment in order, writing to w.
func RunAll(reg map[string]Experiment, sc Scale, w io.Writer) error {
	for _, id := range IDs(reg) {
		fmt.Fprintf(w, "### %s — %s\n", id, reg[id].Title)
		if err := reg[id].Run(sc, w); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}
