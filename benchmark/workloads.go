package main

import (
	"math/rand"

	"ahi/internal/workload"
)

// Entry kinds of a pre-generated call stream. A stream is a sequence of
// calls; a call occupies consecutive entries (8 for a ScanBatch, 128 for a
// batched call, 1 otherwise) and the client dispatches on the kind of the
// first.
const (
	opLookup       uint8 = iota // key of the data set, must be found
	opLookupAbsent              // key in a gap of the data set, must miss
	opOverwrite                 // Insert over a key of the data set
	opChurn                     // Insert of a fresh key, or Delete of the oldest live one
	opScanBatch                 // 8 range requests, entry.n pairs each
	opLookupBatch               // 128 keys
	opInsertBatch               // 128 distinct keys of the data set
)

const (
	scanBatchReqs = 8
	batchKeys     = 128
	// zipfAlpha is the YCSB skew.
	zipfAlpha = 0.99
	// freshLiveBase is the number of churn-inserted keys kept live at
	// scale 1 before churn writes start alternating with deletes.
	freshLiveBase = 1 << 18
)

func isWrite(kind uint8) bool {
	return kind == opOverwrite || kind == opChurn || kind == opInsertBatch
}

// apiName is the public call a kind maps to (span names in trace.json).
func apiName(kind uint8) string {
	switch kind {
	case opLookup, opLookupAbsent:
		return "Lookup"
	case opOverwrite:
		return "Insert"
	case opChurn:
		return "Insert/Delete"
	case opScanBatch:
		return "ScanBatch"
	case opLookupBatch:
		return "LookupBatch"
	case opInsertBatch:
		return "InsertBatch"
	}
	return "?"
}

// entry is one pre-generated operand: the key handed to the index, the
// data-set position it came from (the oracle's handle; unused for absent
// and churn entries) and, for scans, the request length.
type entry struct {
	key  uint64
	idx  uint32
	n    uint16
	kind uint8
}

type indexKind uint8

const (
	singleTree  indexKind = iota // ahi.BulkLoadBTree, one Session
	durableTree                  // ahi.OpenBTree with a WAL, one Session
	shardedTree                  // ahi.BulkLoadShardedBTree, batched calls
)

// spec is one workload: which data set and index it runs on, how its call
// stream is drawn, and the sizes that are frozen at scale 1.
type spec struct {
	name     string
	why      string
	dataset  string // "ycsb" or "userids"
	wideVals bool   // values carry the key (wide FOR fields) or only the tag (narrow)
	index    indexKind
	churns   bool // the stream holds opChurn entries (single-client workloads only)
	clients  func(nproc int) int
	// stride: every stride-th call is timed for the latency histograms.
	// Calls of a microsecond or more are all timed; sub-microsecond calls
	// one in 16, so the ~80 ns clock pair stays a few percent of the loop.
	stride int
	// warmOps is the warm-up's op count at scale 1: long enough for three
	// adaptation phases at the paper's default sample size (write-wal: one,
	// after the four its load ran; README.md, "What one run does").
	warmOps int
	// opsPerSecond is the workload's frozen rate on the 2-core reference
	// host. The measured window is opsPerSecond × --seconds ops: a fixed
	// count, so the same calls run and the counters and the heap reading
	// repeat whatever the speed of the host or of the code under test, and
	// on the reference host the window lasts about --seconds.
	opsPerSecond int
	// streamLen is the number of entries pre-generated per stream; the
	// client cycles through it when the window outlasts it.
	streamLen int
	// phases is the number of streams per client: 1, or 1 + segments for a
	// workload whose traffic changes at every segment start.
	phases int
	gen    func(g *generator, phase int, out []entry) []entry
}

const segments = 5

func one(int) int { return 1 }

func atMostTwo(nproc int) int {
	if nproc < 2 {
		return 1
	}
	return 2
}

var specs = []*spec{
	{
		name:    "point-hot",
		why:     "YCSB-B, Zipf(0.99) point reads with 5% overwrites on one session: the hot set fits the result cache, so cache and sampler dominate and descent is rare",
		dataset: "ycsb", wideVals: true, index: singleTree, clients: one, stride: 16,
		warmOps: 8 << 20, opsPerSecond: 1_600_000, streamLen: 1 << 22, phases: 1,
		gen: genPointHot,
	},
	{
		name:    "point-cold",
		why:     "uniform point reads (1 in 5 absent), 5% insert/delete churn: working set far beyond the cache, so descent and Succinct leaf search dominate; warm-up is 2 adaptation phases, a 3rd would cost 5 s a run",
		dataset: "userids", wideVals: false, index: singleTree, churns: true, clients: one, stride: 16,
		warmOps: 4 << 20, opsPerSecond: 860_000, streamLen: 1 << 23, phases: 1,
		gen: genPointCold,
	},
	{
		name:    "scan-long",
		why:     "YCSB-E-long, fused ScanBatch of 8 ranges of 256-1024 pairs with 5% churn writes: bulk leaf decode dominates, descent is a few percent",
		dataset: "userids", wideVals: false, index: singleTree, churns: true, clients: one, stride: 1,
		warmOps: 3 << 19, opsPerSecond: 450_000, streamLen: 1 << 20, phases: 1,
		gen: genScanLong,
	},
	{
		name:    "write-wal",
		why:     "YCSB-A on a durable tree (5 ms fsync, auto checkpoints): half the calls log a write, so WAL and insert path dominate; ends in close, recover, verify; warm-up adds 1 adaptation phase to the load's 3",
		dataset: "ycsb", wideVals: true, index: durableTree, churns: true, clients: one, stride: 4,
		warmOps: 3 << 19, opsPerSecond: 290_000, streamLen: 1 << 20, phases: 1,
		gen: genWriteWAL,
	},
	{
		name:    "serve-shift",
		why:     "sharded front with tracing on, batched calls from 2 clients, hot set jumping to another shard every segment: routing, migrator pool and rebalance work; segment throughput is the re-adaptation cost",
		dataset: "ycsb", wideVals: true, index: shardedTree, clients: atMostTwo, stride: 1,
		warmOps: 6 << 20, opsPerSecond: 2_700_000, streamLen: 1 << 20, phases: 1 + segments,
		gen: genServeShift,
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// generator draws one client's streams. The index never sees it: only the
// entries it produces.
type generator struct {
	keys    []uint64
	rng     *rand.Rand
	client  int
	clients int
	seed    int64
}

func (g *generator) at(kind uint8, idx int) entry {
	return entry{key: g.keys[idx], idx: uint32(idx), kind: kind}
}

// streamSeed derives an independent seed per (run seed, client, phase, use).
func (g *generator) streamSeed(phase, use int) int64 {
	return g.seed*1_000_003 + int64(g.client)*10_007 + int64(phase)*101 + int64(use)
}

func genPointHot(g *generator, phase int, out []entry) []entry {
	n := len(g.keys)
	reads := workload.NewZipf(n, zipfAlpha, g.streamSeed(phase, 1))
	writes := workload.NewZipf(n, zipfAlpha, g.streamSeed(phase, 2))
	for len(out) < cap(out) {
		if g.rng.Intn(100) < 5 {
			out = append(out, g.at(opOverwrite, writes.Draw()))
		} else {
			out = append(out, g.at(opLookup, reads.Draw()))
		}
	}
	return out
}

func genPointCold(g *generator, _ int, out []entry) []entry {
	n := len(g.keys)
	for len(out) < cap(out) {
		if g.rng.Intn(100) < 5 {
			out = append(out, entry{kind: opChurn})
			continue
		}
		i := g.rng.Intn(n - 1)
		if g.rng.Intn(5) == 0 && g.keys[i+1]-g.keys[i] > 1 {
			out = append(out, entry{key: g.keys[i] + 1, kind: opLookupAbsent})
		} else {
			out = append(out, g.at(opLookup, i))
		}
	}
	return out
}

func genScanLong(g *generator, phase int, out []entry) []entry {
	n := len(g.keys)
	// Starts leave 2048 base keys after them, so every request finds its
	// full length whatever the churn has deleted.
	span := n - 2048
	if span < 1 {
		span = 1
	}
	starts := workload.NewZipf(span, zipfAlpha, g.streamSeed(phase, 1))
	for len(out) < cap(out) {
		if g.rng.Intn(100) < 5 || cap(out)-len(out) < scanBatchReqs {
			out = append(out, entry{kind: opChurn})
			continue
		}
		for r := 0; r < scanBatchReqs; r++ {
			e := g.at(opScanBatch, starts.Draw())
			// The clamp only bites on tiny smoke-test data sets.
			e.n = uint16(min(256+g.rng.Intn(769), n-int(e.idx)))
			out = append(out, e)
		}
	}
	return out
}

func genWriteWAL(g *generator, phase int, out []entry) []entry {
	n := len(g.keys)
	reads := workload.NewZipf(n, zipfAlpha, g.streamSeed(phase, 1))
	writes := workload.NewZipf(n, zipfAlpha, g.streamSeed(phase, 2))
	for len(out) < cap(out) {
		switch g.rng.Intn(4) {
		case 0:
			out = append(out, g.at(opOverwrite, writes.Draw()))
		case 1:
			out = append(out, entry{kind: opChurn})
		default:
			out = append(out, g.at(opLookup, reads.Draw()))
		}
	}
	return out
}

// shiftStarts places the hot range of each phase (warm-up, then one per
// segment) as a fraction of the key space. With 4 equal shards the phases
// land in shards 1, 0, 2, 1, 3, 0: every segment starts in a shard other
// than the one the previous segment heated.
var shiftStarts = [1 + segments]float64{0.40, 0.10, 0.60, 0.30, 0.85, 0.15}

func genServeShift(g *generator, phase int, out []entry) []entry {
	n := len(g.keys)
	start := shiftStarts[phase] + 0.04*g.rng.Float64()
	hot := workload.NewHotSet(n, int(start*float64(n)), 0.01, 0.99, g.streamSeed(phase, 1))
	seen := make(map[int]struct{}, batchKeys)
	for len(out)+batchKeys <= cap(out) {
		if g.rng.Intn(100) >= 5 {
			for i := 0; i < batchKeys; i++ {
				out = append(out, g.at(opLookupBatch, hot.Draw()))
			}
			continue
		}
		// A client writes only its own residue class of positions, so
		// two clients never race on a key and each one's last write is
		// known; keys of one batch are distinct, so the batch has one
		// defined outcome.
		clear(seen)
		for len(seen) < batchKeys {
			i := hot.Draw()
			i -= i % g.clients
			i += g.client
			if i >= n {
				continue
			}
			if _, dup := seen[i]; dup {
				continue
			}
			seen[i] = struct{}{}
			out = append(out, g.at(opInsertBatch, i))
		}
	}
	return out
}
