package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"ahi/internal/btree"
	"ahi/internal/core"
	"ahi/internal/dataset"
	"ahi/internal/shard"
	"ahi/internal/workload"
)

// The scaling experiment measures how the concurrency-first adaptation
// path scales with cores: GOMAXPROCS x shard count x concurrent client
// goroutines, all serving batched Zipfian lookups against one sharded
// adaptive tree while each shard's migration workers re-encode behind
// them. The serve path never pays a migration, so added clients should
// translate into aggregate throughput — bounded by the machine's actual
// core count (a 1-core host serializes every cell onto the same CPU).

// Scaling sweep axes.
var (
	scalingProcs   = []int{1, 2, 4}
	scalingShards  = []int{1, 4}
	scalingClients = []int{1, 2, 4}
)

// scalingBatch is the lookup batch size every client issues; at 128 the
// batch kernel's per-key cost is fully amortized.
const scalingBatch = 128

// ScalingRow is one (procs, shards, clients) cell.
type ScalingRow struct {
	Procs   int
	Shards  int
	Clients int
	// MopsPerS is aggregate throughput across all clients.
	MopsPerS float64
	// Speedup is vs the clients=1 cell of the same (procs, shards) pair.
	Speedup float64
}

// ScalingResult is the sweep plus the migration telemetry accumulated
// over every cell.
type ScalingResult struct {
	Rows          []ScalingRow
	Backpressured int64
}

// RunScaling sweeps the three axes. GOMAXPROCS is set per (procs,
// shards) pair — before the tree is built, so fan-out pool and sample
// store sizing see the value a real deployment of that width would — and
// restored afterwards.
func RunScaling(sc Scale) (ScalingResult, Table) {
	keys := dataset.YCSBKeys(sc.ConsecU64, 5)
	vals := make([]uint64, len(keys))
	for i := range vals {
		vals[i] = uint64(i)
	}
	budget := adaptiveBudget(keys, vals, 4)
	opsPerClient := sc.OpsPerPhase / 4
	opsPerClient -= opsPerClient % scalingBatch
	if opsPerClient < scalingBatch {
		opsPerClient = scalingBatch
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	var res ScalingResult
	for _, procs := range scalingProcs {
		for _, shards := range scalingShards {
			runtime.GOMAXPROCS(procs)
			cells := scalingSweep(sc, keys, vals, budget, shards, opsPerClient, &res)
			var base float64
			for ci, clients := range scalingClients {
				row := ScalingRow{
					Procs: procs, Shards: shards, Clients: clients,
					MopsPerS: cells[ci],
				}
				if ci == 0 {
					base = row.MopsPerS
				}
				row.Speedup = row.MopsPerS / base
				res.Rows = append(res.Rows, row)
			}
		}
	}
	runtime.GOMAXPROCS(prev)

	tbl := Table{
		Title:  "Multi-core scaling: GOMAXPROCS x shards x clients",
		Header: []string{"procs", "shards", "clients", "Mops/s", "speedup"},
	}
	for _, r := range res.Rows {
		tbl.Rows = append(tbl.Rows, []string{
			fmt.Sprint(r.Procs), fmt.Sprint(r.Shards), fmt.Sprint(r.Clients),
			f2(r.MopsPerS), f2(r.Speedup) + "x",
		})
	}
	return res, tbl
}

// scalingSweep builds one sharded tree at the current GOMAXPROCS and
// times every client count against it, returning aggregate Mops/s per
// entry of scalingClients. One tree per (procs, shards) pair keeps the
// client axis honest: every cell sees the identical index layout.
func scalingSweep(sc Scale, keys, vals []uint64, budget int64, shards, opsPerClient int, res *ScalingResult) []float64 {
	initial, minS, maxS, maxSample := sc.sampling()
	acfg := btree.AdaptiveConfig{
		Tree:            btree.Config{DefaultEncoding: btree.EncSuccinct},
		MemoryBudget:    budget,
		InitialSkip:     initial,
		MinSkip:         minS,
		MaxSkip:         maxS,
		MaxSampleSize:   maxSample,
		Mode:            core.GS,
		AsyncMigrations: true,
	}
	s := shard.BulkLoad(shard.Config{Shards: shards, Adaptive: acfg}, keys, vals)

	// Per-client pre-generated Zipfian streams: draws happen outside the
	// timed region, and each client gets a distinct seed so concurrent
	// cells are not lock-step identical.
	maxClients := scalingClients[len(scalingClients)-1]
	streams := make([][]uint64, maxClients)
	for c := range streams {
		d := workload.NewZipf(len(keys), 1.1, int64(7+c))
		st := make([]uint64, opsPerClient)
		for i := range st {
			st[i] = keys[d.Draw()]
		}
		streams[c] = st
	}

	// Untimed warmup converges the adaptive state once per tree.
	warm(s, streams[0])
	s.DrainMigrations()

	out := make([]float64, len(scalingClients))
	for ci, clients := range scalingClients {
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go func(stream []uint64) {
				defer wg.Done()
				qv := make([]uint64, scalingBatch)
				qf := make([]bool, scalingBatch)
				<-start
				for off := 0; off < len(stream); off += scalingBatch {
					s.LookupBatch(stream[off:off+scalingBatch], qv, qf)
				}
			}(streams[c])
		}
		t0 := time.Now()
		close(start)
		wg.Wait()
		elapsed := time.Since(t0)
		out[ci] = float64(clients*opsPerClient) / elapsed.Seconds() / 1e6
	}

	s.DrainMigrations()
	res.Backpressured += s.Shard(0).Mgr.Backpressured() // one manager for all shards
	s.Close()
	runtime.GC()
	return out
}

func warm(s *shard.ShardedBTree, stream []uint64) {
	qv := make([]uint64, scalingBatch)
	qf := make([]bool, scalingBatch)
	for off := 0; off < len(stream); off += scalingBatch {
		s.LookupBatch(stream[off:off+scalingBatch], qv, qf)
	}
}
