package bench

import (
	"fmt"
	"time"

	"ahi/internal/btree"
	"ahi/internal/core"
	"ahi/internal/workload"
)

// This file measures the foreground stall an adaptation phase imposes
// with inline and with asynchronous migrations. Rank/select
// probes and leaf re-encoding cost are measured elsewhere: the bitutil
// BenchmarkBitVector* benchmarks and the btree.migrate_* rungs of
// benchmark/.

// MicroRow is one measured microbenchmark metric.
type MicroRow struct {
	Metric string
	Value  float64
	Unit   string
}

// RunMicro measures the adaptation stall at the given scale.
func RunMicro(sc Scale) ([]MicroRow, Table) {
	rows := pipelineMicro(sc)
	t := Table{
		Title:  "microbenchmarks: adaptation stall, inline vs async migrations",
		Header: []string{"metric", "value", "unit"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Metric, fmt.Sprintf("%.1f", r.Value), r.Unit})
	}
	return rows, t
}

// pipelineMicro runs the same skewed lookup workload against an adaptive
// tree with inline and with asynchronous migrations, timing every
// operation individually. The ops that trip an adaptation phase (observed
// via OnAdapt, which fires inside the triggering op) are averaged
// separately: inline, such a lookup pays for every leaf re-encoding of
// the phase; with async migrations it pays classification only.
func pipelineMicro(sc Scale) []MicroRow {
	n := sc.ConsecU64
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 16
		vals[i] = uint64(i)
	}
	initialSkip, minSkip, maxSkip, maxSample := sc.sampling()
	ops := sc.OpsPerPhase / 2

	run := func(async bool) (meanNs, adaptNs float64) {
		adaptHit := false
		a := btree.BulkLoadAdaptive(btree.AdaptiveConfig{
			Tree:            btree.Config{DefaultEncoding: btree.EncSuccinct},
			RelativeBudget:  0.5,
			InitialSkip:     initialSkip,
			MinSkip:         minSkip,
			MaxSkip:         maxSkip,
			MaxSampleSize:   maxSample,
			AsyncMigrations: async,
			OnAdapt:         func(core.AdaptInfo) { adaptHit = true },
		}, keys, vals)
		defer a.Close()
		s := a.NewSession()
		z := workload.NewZipf(n, 1.1, 7)
		var sink uint64
		var total, adaptTotal time.Duration
		adaptOps := 0
		for i := 0; i < ops; i++ {
			k := keys[z.Draw()]
			start := time.Now()
			v, _ := s.Lookup(k)
			el := time.Since(start)
			sink += v
			total += el
			if adaptHit {
				adaptHit = false
				adaptTotal += el
				adaptOps++
			}
		}
		a.DrainMigrations()
		_ = sink
		if adaptOps == 0 {
			return float64(total.Nanoseconds()) / float64(ops), 0
		}
		return float64(total.Nanoseconds()) / float64(ops),
			float64(adaptTotal.Nanoseconds()) / float64(adaptOps)
	}

	syncMean, syncAdapt := run(false)
	asyncMean, asyncAdapt := run(true)
	return []MicroRow{
		{"adapt-stall/inline-mean", syncMean, "ns/op"},
		{"adapt-stall/inline-adapt-op", syncAdapt / 1000, "us"},
		{"adapt-stall/async-mean", asyncMean, "ns/op"},
		{"adapt-stall/async-adapt-op", asyncAdapt / 1000, "us"},
	}
}
