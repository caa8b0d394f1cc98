package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// verdict judges one end-to-end metric of the new result against the base.
// The change, as a share of the base, counts in the metric's worse
// direction. Within the bound it is "same". Beyond it, the two spreads (the
// range over a side's runs, or over the segments of a lone run) decide: when
// they overlap the sides cannot be told apart, so the cell is "unresolved";
// otherwise it is "better" or "worse".
func verdict(def *metricDef, bound float64, base, cur metric) (worse float64, v string) {
	worse = (cur.Value - base.Value) / base.Value
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse <= bound && worse >= -bound:
		v = "same"
	case base.Lo <= cur.Hi && cur.Lo <= base.Hi:
		v = "unresolved"
	case worse > 0:
		v = "worse"
	default:
		v = "better"
	}
	return worse, v
}

// compareFiles prints one row per workload and end-to-end metric and
// returns 1 when any cell that is not diagnostic is worse or a workload
// fails more ops than in the base.
func compareFiles(basePath, curPath string, out, errOut io.Writer) int {
	base, err := readResult(basePath)
	if err != nil {
		fmt.Fprintln(errOut, "benchmark -compare:", err)
		return 2
	}
	cur, err := readResult(curPath)
	if err != nil {
		fmt.Fprintln(errOut, "benchmark -compare:", err)
		return 2
	}
	return compareResults(base, cur, out)
}

// pooled folds a workload's untraced runs into one: a lone run as it is,
// several as the median of their values with the range of those values as
// the spread, so one run that met a slow minute of the host widens the
// spread instead of moving the figure.
func pooled(f *resultFile, workload string) *runResult {
	var runs []*runResult
	for _, r := range f.Runs {
		if r.Workload == workload && !r.Traced {
			runs = append(runs, r)
		}
	}
	if len(runs) < 2 {
		if len(runs) == 0 {
			return nil
		}
		return runs[0]
	}
	p := &runResult{Workload: workload, Metrics: map[string]metric{}}
	for _, r := range runs {
		p.Attempted += r.Attempted
		p.Failed += r.Failed
	}
	for name, m := range runs[0].Metrics {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r.Metrics[name].Value
		}
		p.set(name, m.Unit, vals)
	}
	return p
}

func compareResults(base, cur *resultFile, out io.Writer) int {
	fmt.Fprintf(out, "base %.12s (%s, %d cpus)   new %.12s (%s, %d cpus)\n",
		base.Env.Commit, base.Env.GoVersion, base.Env.NumCPU, cur.Env.Commit, cur.Env.GoVersion, cur.Env.NumCPU)
	fmt.Fprintf(out, "%-12s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	code := 0
	for _, s := range specs {
		b, c := pooled(base, s.name), pooled(cur, s.name)
		if b == nil {
			continue
		}
		if c == nil {
			fmt.Fprintf(out, "%-12s missing from the new result\n", s.name)
			code = 1
			continue
		}
		for i := range endToEndMetrics {
			def := &endToEndMetrics[i]
			bm, cm := b.Metrics[def.Name], c.Metrics[def.Name]
			bound, diagnostic := compareBound(s.name, def)
			_, v := verdict(def, bound, bm, cm)
			switch {
			case diagnostic:
				v += " (diagnostic)"
			case v == "worse":
				code = 1
			}
			fmt.Fprintf(out, "%-12s %-20s %14.4f %14.4f %9.4f %6.0f%%  %s\n",
				s.name, def.Name, bm.Value, cm.Value, cm.Value/bm.Value, 100*bound, v)
		}
		bs, cs := float64(b.Failed)/float64(b.Attempted), float64(c.Failed)/float64(c.Attempted)
		v := "same"
		if cs > bs {
			v, code = "worse", 1
		}
		fmt.Fprintf(out, "%-12s %-20s %14g %14g %9s %6.0f%%  %s\n", s.name, "failed_share", bs, cs, "", 0.0, v)
	}
	return code
}
