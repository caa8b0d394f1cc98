// concurrent: the Hybrid B+-tree under multi-worker load with the two
// concurrent adaptation strategies of the paper's §3.1.5 — GS (one shared
// concurrent cuckoo sample map) and TLS (thread-local maps merged per
// phase). Workers run a skewed read/insert mix; one of them completes each
// sampling phase and performs the adaptation while the others keep going.
package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ahi/internal/btree"
	"ahi/internal/core"
	"ahi/internal/dataset"
	"ahi/internal/stats"
	"ahi/internal/workload"
)

func run(mode core.ConcurrencyMode, name string, workers int, keys, vals []uint64) {
	base := btree.BulkLoad(btree.Config{DefaultEncoding: btree.EncSuccinct}, keys, vals).Bytes()
	a := btree.BulkLoadAdaptive(btree.AdaptiveConfig{
		Tree:         btree.Config{DefaultEncoding: btree.EncSuccinct},
		MemoryBudget: base + base/2,
		Mode:         mode,
		InitialSkip:  16, MinSkip: 8, MaxSkip: 128,
		MaxSampleSize: 8192,
	}, keys, vals)

	const opsPerWorker = 1_500_000
	var ops atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a.NewSession() // one session per goroutine
			defer s.Flush()     // hand leftover thread-local samples over
			gen := workload.NewGenerator(workload.W52, len(keys), int64(w)*31+1)
			for i := 0; i < opsPerWorker; i++ {
				op := gen.Next()
				switch op.Kind {
				case workload.OpRead:
					if _, ok := s.Lookup(keys[op.Index]); !ok {
						panic("key lost")
					}
				case workload.OpScan:
					s.Scan(keys[op.Index], op.ScanLen, func(k, v uint64) bool { return true })
				case workload.OpInsert:
					s.Insert(keys[op.Index]+1, uint64(op.Index))
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	el := time.Since(start)
	sc, pc, gc := a.Tree.LeafCounts()
	fmt.Printf("%-4s %2d workers: %6.2f Mops/s  adaptations=%-3d size=%s (s/p/g %d/%d/%d) framework=%s\n",
		name, workers, float64(ops.Load())/el.Seconds()/1e6,
		a.Mgr.Adaptations(), stats.HumanBytes(a.Tree.Bytes()), sc, pc, gc,
		stats.HumanBytes(a.Mgr.Bytes()))
}

func main() {
	keys := dataset.OSM(1_000_000, 1)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	fmt.Printf("scan-dominated W5.2 over %d keys on %d CPUs\n", len(keys), runtime.NumCPU())
	for _, workers := range []int{1, 2, 4} {
		run(core.GS, "GS", workers, keys, vals)
		run(core.TLS, "TLS", workers, keys, vals)
	}
	fmt.Println("\nTLS buys lower sampling contention for slightly more memory;")
	fmt.Println("GS keeps one compact shared map (paper §3.1.5, Figure 18).")
}
