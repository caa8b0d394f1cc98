package bench

import (
	"fmt"
	"io"

	"ahi/internal/btree"
	"ahi/internal/obs"
	"ahi/internal/shard"
	"ahi/internal/workload"
)

// RunTraced drives the observability layer end to end: a skewed lookup
// phase against an adaptive tree (source "btree", asynchronous
// migrations) followed by a batched phase against a small sharded
// front-end (its one manager "front", its shards' op events
// "shard0".."shardN"), all recording into o — with
// the flight recorder on (1/8 sampling), so the dump carries op events
// for ahimon -explain-tail. The caller then serializes o.Dump() for
// ahimon --replay; the printed table summarizes what was captured.
func RunTraced(sc Scale, o *obs.Observability, w io.Writer) error {
	o.EnableTracing(obs.FlightConfig{SampleEvery: 8})
	n := sc.ConsecU64
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 16
		vals[i] = uint64(i)
	}
	initialSkip, minSkip, maxSkip, maxSample := sc.sampling()

	// Phase 1: single adaptive tree, skewed point lookups.
	a := btree.BulkLoadAdaptive(btree.AdaptiveConfig{
		Tree:            btree.Config{DefaultEncoding: btree.EncSuccinct},
		RelativeBudget:  0.5,
		InitialSkip:     initialSkip,
		MinSkip:         minSkip,
		MaxSkip:         maxSkip,
		MaxSampleSize:   maxSample,
		AsyncMigrations: true,
		Obs:             o,
		ObsSource:       "btree",
	}, keys, vals)
	s := a.NewSession()
	z := workload.NewZipf(n, 1.1, 7)
	var sink uint64
	for i := 0; i < sc.OpsPerPhase/2; i++ {
		v, _ := s.Lookup(keys[z.Draw()])
		sink += v
	}
	a.DrainMigrations()
	a.Close()

	// Phase 2: sharded front-end, batched lookups — populates the front's
	// and the shards' sources in the same registry.
	st := shard.BulkLoad(shard.Config{
		Shards: 2,
		Adaptive: btree.AdaptiveConfig{
			Tree:            btree.Config{DefaultEncoding: btree.EncSuccinct},
			RelativeBudget:  0.5,
			InitialSkip:     initialSkip,
			MinSkip:         minSkip,
			MaxSkip:         maxSkip,
			MaxSampleSize:   maxSample,
			AsyncMigrations: true,
		},
		Obs: o,
	}, keys, vals)
	const batch = 512
	bk := make([]uint64, batch)
	bv := make([]uint64, batch)
	bf := make([]bool, batch)
	for done := 0; done < sc.OpsPerPhase/2; done += batch {
		for j := range bk {
			bk[j] = keys[z.Draw()]
		}
		st.LookupBatch(bk, bv, bf)
	}
	st.DrainMigrations()
	st.Close()
	_ = sink

	d := o.Dump()
	t := Table{
		Title:  "observability capture: migration trace + epoch snapshots",
		Header: []string{"what", "count"},
		Rows: [][]string{
			{"trace events retained", fmt.Sprint(len(d.Trace))},
			{"trace events total", fmt.Sprint(d.TraceTotal)},
			{"epoch snapshots retained", fmt.Sprint(len(d.Snapshots))},
			{"op events retained", fmt.Sprint(len(d.Ops))},
			{"op events recorded", fmt.Sprint(d.OpsTotal)},
			{"metric series", fmt.Sprint(len(d.Metrics))},
		},
	}
	t.Render(w)
	return d.Validate()
}
