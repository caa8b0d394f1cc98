package bench

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"ahi/internal/btree"
	"ahi/internal/storage"
	"ahi/internal/wal"
)

// durability: the write-ahead-log experiment. Part one measures the real
// durable tree: concurrent writers insert through each fsync policy
// (plus a WAL-off baseline) against a log in a temp directory, recording
// per-op cost, tail latency, and how far group commit amortizes each
// fsync; the directory is then reopened to measure recovery — warm from
// the auto-checkpoint, replaying the tail. Part two is the per-device
// fsync-policy sweep over the storage model: the Device.SyncLat term
// prices one durability barrier per device class, and group size divides
// it — the table shows the per-record overhead an acked write pays on
// each device at increasing group-commit batch sizes.

// DurRow is one measured fsync-policy configuration.
type DurRow struct {
	Policy  string
	Workers int
	NsOp    float64
	P99Us   float64
	// RecsPerFsync is GroupedRecords/Fsyncs — the achieved group-commit
	// amortization. Only the always policy groups commits, so the other
	// rows read 0 (their fsyncs cover buffered records, not ack groups).
	RecsPerFsync float64
	Fsyncs       int64
	// Recovery of the same directory after Close.
	RecoverMs float64
	Replayed  int
	WarmStart bool
}

// DurDeviceRow is one device class in the modeled sync-cost sweep.
type DurDeviceRow struct {
	Device string
	SyncUs float64
	// PerRecUs[i] is the modeled per-record barrier cost at group size
	// durGroupSizes[i].
	PerRecUs []float64
}

// DurResult is the durability experiment outcome.
type DurResult struct {
	Rows    []DurRow
	Devices []DurDeviceRow
}

var durGroupSizes = []int{1, 8, 64}

// durInsertFrame is the on-log footprint of one insert record: frame
// header plus key and value.
const durInsertFrame = 9 + 16

func durOps(sc Scale, policy string) int {
	base := sc.OpsPerPhase / 10
	if policy == "always" {
		// Every commit waits on a group fsync: bound the fsync count so the
		// row measures amortization, not the disk.
		if base > 4000 {
			base = 4000
		}
		return base
	}
	if base > 100_000 {
		base = 100_000
	}
	return base
}

func durRun(sc Scale, policy string) DurRow {
	const workers = 4
	row := DurRow{Policy: policy, Workers: workers}
	ops := durOps(sc, policy)

	dir, err := os.MkdirTemp("", "ahi-durexp-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	cfg := btree.AdaptiveConfig{Tree: btree.Config{DefaultEncoding: btree.EncSuccinct}}
	if policy != "off" {
		pol, perr := wal.PolicyByName(policy)
		if perr != nil {
			panic(perr)
		}
		cfg.Dur = &btree.DurabilityConfig{
			Dir:             dir,
			Policy:          pol,
			CheckpointEvery: int64(ops/2 + 1), // one auto checkpoint mid-run
		}
	}
	a, _, err := btree.OpenAdaptive(cfg)
	if err != nil {
		panic(err)
	}

	lats := make([][]time.Duration, workers)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := a.NewSession()
			per := ops / workers
			l := make([]time.Duration, 0, per)
			for i := 0; i < per; i++ {
				k := uint64(w*per+i)*16 + 1
				c0 := time.Now()
				s.Insert(k, k)
				l = append(l, time.Since(c0))
			}
			lats[w] = l
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	row.NsOp = float64(elapsed.Nanoseconds()) / float64(len(all))
	row.P99Us = float64(all[len(all)*99/100].Nanoseconds()) / 1e3

	if st := a.WALStats(); st != nil {
		row.Fsyncs = st.Fsyncs.Load()
		if row.Fsyncs > 0 {
			row.RecsPerFsync = float64(st.GroupedRecords.Load()) / float64(row.Fsyncs)
		}
	}
	a.Close()

	if policy != "off" {
		r0 := time.Now()
		b, rst, err := btree.OpenAdaptive(cfg)
		if err != nil {
			panic(err)
		}
		row.RecoverMs = float64(time.Since(r0).Nanoseconds()) / 1e6
		row.Replayed = rst.Replayed
		row.WarmStart = rst.WarmStart
		b.Close()
	}
	return row
}

// RunDurability runs the measured fsync-policy sweep and the modeled
// per-device sync-cost table.
func RunDurability(sc Scale) (DurResult, Table) {
	var res DurResult
	for _, policy := range []string{"off", "os", "interval", "always"} {
		res.Rows = append(res.Rows, durRun(sc, policy))
	}
	for _, d := range storage.Devices {
		dr := DurDeviceRow{Device: d.Name, SyncUs: float64(d.SyncLat.Nanoseconds()) / 1e3}
		for _, g := range durGroupSizes {
			perRec := float64(d.SyncTime(durInsertFrame*g).Nanoseconds()) / float64(g) / 1e3
			dr.PerRecUs = append(dr.PerRecUs, perRec)
		}
		res.Devices = append(res.Devices, dr)
	}

	t := Table{
		Title:  "durability: fsync policies (4 writers) and modeled per-device barrier cost",
		Header: []string{"policy", "ns/op", "p99 µs", "recs/fsync", "recover ms", "replayed", "warm"},
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{
			r.Policy, fmt.Sprintf("%.0f", r.NsOp), fmt.Sprintf("%.1f", r.P99Us),
			fmt.Sprintf("%.1f", r.RecsPerFsync), fmt.Sprintf("%.2f", r.RecoverMs),
			fmt.Sprintf("%d", r.Replayed), fmt.Sprintf("%v", r.WarmStart),
		})
	}
	return res, t
}

func renderDurDevices(w io.Writer, rows []DurDeviceRow) {
	t := Table{
		Title:  "modeled per-record barrier cost by device and group-commit size (µs)",
		Header: []string{"device", "sync µs", "g=1", "g=8", "g=64"},
	}
	for _, d := range rows {
		t.Rows = append(t.Rows, []string{
			d.Device, fmt.Sprintf("%.2f", d.SyncUs),
			fmt.Sprintf("%.2f", d.PerRecUs[0]), fmt.Sprintf("%.2f", d.PerRecUs[1]), fmt.Sprintf("%.2f", d.PerRecUs[2]),
		})
	}
	t.Render(w)
}
