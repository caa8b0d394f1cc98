package bench

import (
	"fmt"
	"sync"
	"time"

	"ahi/internal/btree"
	"ahi/internal/core"
	"ahi/internal/dataset"
	"ahi/internal/workload"
)

// Fig18Row is one (strategy, workload, threads) cell.
type Fig18Row struct {
	Strategy string
	Workload string
	Threads  int
	MopsPerS float64
}

// RunFig18 reproduces Figure 18: throughput of the two concurrent
// adaptation strategies — GS (global cuckoo sample map) and TLS
// (thread-local maps merged per phase) — under the write-dominated W5.1
// and the scan-dominated W5.2, for increasing worker counts.
func RunFig18(sc Scale) ([]Fig18Row, Table) {
	var rows []Fig18Row
	var threadCounts []int
	for t := 1; t <= sc.Threads; t *= 2 {
		threadCounts = append(threadCounts, t)
	}
	for _, wname := range []string{"W5.1", "W5.2"} {
		spec := workload.Specs[wname]
		for _, strategy := range []struct {
			name string
			mode core.ConcurrencyMode
		}{
			{"GS", core.GS},
			{"TLS", core.TLS},
		} {
			for _, threads := range threadCounts {
				keys := dataset.OSM(sc.OSMKeys, 1)
				vals := make([]uint64, len(keys))
				for i := range vals {
					vals[i] = uint64(i)
				}
				initial, minS, maxS, maxSample := sc.sampling()
				a := btree.BulkLoadAdaptive(btree.AdaptiveConfig{
					Tree:          btree.Config{DefaultEncoding: btree.EncSuccinct},
					MemoryBudget:  adaptiveBudget(keys, vals, 4),
					Mode:          strategy.mode,
					InitialSkip:   initial,
					MinSkip:       minS,
					MaxSkip:       maxS,
					MaxSampleSize: maxSample,
				}, keys, vals)
				opsPerWorker := sc.OpsPerPhase / 2 / threads
				var wg sync.WaitGroup
				start := time.Now()
				for w := 0; w < threads; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						s := a.NewSession()
						defer s.Flush()
						gen := workload.NewGenerator(spec, len(keys), int64(w)*101+7)
						runOps(sessionIndex{s, a}, gen, keys, opsPerWorker, 0)
					}(w)
				}
				wg.Wait()
				el := time.Since(start)
				totalOps := float64(opsPerWorker * threads)
				rows = append(rows, Fig18Row{
					Strategy: strategy.name,
					Workload: wname,
					Threads:  threads,
					MopsPerS: totalOps / el.Seconds() / 1e6,
				})
			}
		}
	}
	tbl := Table{
		Title:  "Figure 18: GS vs TLS concurrent adaptation throughput",
		Header: []string{"workload", "strategy", "threads", "Mops/s"},
	}
	for _, r := range rows {
		tbl.Rows = append(tbl.Rows, []string{r.Workload, r.Strategy, fmt.Sprint(r.Threads), f2(r.MopsPerS)})
	}
	return rows, tbl
}
