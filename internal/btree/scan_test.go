package btree

import (
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"ahi/internal/core"
)

// scanTree bulk-loads n pairs (keys i*3, vals i*3+1) with the given
// default encoding.
func scanTree(tb testing.TB, enc core.Encoding, n int) (*Tree, []uint64, []uint64) {
	tb.Helper()
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = uint64(i)*3 + 1
	}
	return BulkLoad(Config{DefaultEncoding: enc}, keys, vals), keys, vals
}

// scanElementwise is the pre-kernel reference scan: one keyAt/valAt
// interface call per pair, exactly the per-element access path ScanBatch
// replaces. It is the oracle for the decode-kernel tests and the baseline
// of BenchmarkScanElementwiseSuccinct, against which CI gates the
// ScanBatch speedup.
func scanElementwise(t *Tree, from uint64, n int, fn func(k, v uint64) bool) int {
	if n <= 0 {
		return 0
	}
	leaf, _ := t.descend(from, nil, nil)
	_, b := moveRightLeaf(leaf, from, nil)
	visited := 0
	i, _ := b.p.search(from)
	for visited < n {
		for ; i < b.p.count() && visited < n; i++ {
			if !fn(b.p.keyAt(i), b.p.valAt(i)) {
				return visited + 1
			}
			visited++
		}
		if visited >= n || b.next == nil {
			break
		}
		b = b.next.box.Load()
		i = 0
	}
	return visited
}

// collectElementwise gathers up to n pairs from the element-wise
// reference scan — the oracle every bulk path must match.
func collectElementwise(tr *Tree, from uint64, n int) ([]uint64, []uint64) {
	var ks, vs []uint64
	scanElementwise(tr, from, n, func(k, v uint64) bool {
		ks = append(ks, k)
		vs = append(vs, v)
		return true
	})
	return ks, vs
}

func TestScanBatchMatchesElementwiseOracle(t *testing.T) {
	for _, enc := range []core.Encoding{EncSuccinct, EncPacked, EncGapped} {
		tr, keys, _ := scanTree(t, enc, 40_000)
		rng := rand.New(rand.NewSource(int64(enc) + 1))
		var buf ScanBuffer
		for round := 0; round < 30; round++ {
			nreq := 1 + rng.Intn(12)
			reqs := make([]ScanReq, nreq)
			for i := range reqs {
				// Starts anywhere (incl. between keys and past the max key),
				// lengths from tiny to multi-leaf; a few overlapping pairs.
				reqs[i] = ScanReq{
					From: uint64(rng.Intn(len(keys)*3 + 1000)),
					N:    rng.Intn(1500),
				}
				if i > 0 && rng.Intn(3) == 0 {
					reqs[i].From = reqs[i-1].From + uint64(rng.Intn(64)) // overlap
				}
			}
			buf.Reset(nreq)
			got := tr.ScanBatch(reqs, &buf)
			total := 0
			for i, r := range reqs {
				wk, wv := collectElementwise(tr, r.From, r.N)
				total += len(wk)
				if len(buf.Keys(i)) != len(wk) {
					t.Fatalf("enc=%v round=%d req=%d (%+v): got %d pairs, want %d",
						enc, round, i, r, len(buf.Keys(i)), len(wk))
				}
				for j := range wk {
					if buf.Keys(i)[j] != wk[j] || buf.Vals(i)[j] != wv[j] {
						t.Fatalf("enc=%v req=%d pair %d: got (%d,%d) want (%d,%d)",
							enc, i, j, buf.Keys(i)[j], buf.Vals(i)[j], wk[j], wv[j])
					}
				}
			}
			if got != total {
				t.Fatalf("enc=%v round=%d: ScanBatch returned %d, delivered %d", enc, round, got, total)
			}
		}
	}
}

func TestScanBatchEdgeCases(t *testing.T) {
	tr, keys, _ := scanTree(t, EncSuccinct, 5_000)
	var buf ScanBuffer

	// Empty batch, zero/negative N, start past the last key.
	if n := tr.ScanBatch(nil, &buf); n != 0 {
		t.Fatalf("empty batch delivered %d", n)
	}
	buf.Reset(3)
	n := tr.ScanBatch([]ScanReq{
		{From: 0, N: 0},
		{From: 10, N: -5},
		{From: keys[len(keys)-1] + 1, N: 100},
	}, &buf)
	if n != 0 || buf.Len(0) != 0 || buf.Len(1) != 0 || buf.Len(2) != 0 {
		t.Fatalf("degenerate requests delivered %d pairs", n)
	}

	// A request larger than the key count drains the whole tree.
	buf.Reset(1)
	tr.ScanBatch([]ScanReq{{From: 0, N: len(keys) * 2}}, &buf)
	if buf.Len(0) != len(keys) {
		t.Fatalf("huge request delivered %d pairs, want %d", buf.Len(0), len(keys))
	}

	// Identical Froms must each get their own full result.
	buf.Reset(2)
	tr.ScanBatch([]ScanReq{{From: 300, N: 40}, {From: 300, N: 40}}, &buf)
	for i := 0; i < 2; i++ {
		if buf.Len(i) != 40 {
			t.Fatalf("duplicate req %d delivered %d pairs", i, buf.Len(i))
		}
	}
}

// hugeNs are request lengths past what an int32 holds: "everything from
// here on" is written Scan(from, math.MaxInt, …). Narrowed to 32 bits the
// first three read as negative, zero and 10.
func hugeNs(t *testing.T) []int {
	if strconv.IntSize < 64 {
		t.Skip("int is 32 bits wide")
	}
	ns := []int64{1<<31 + 5, 1 << 32, 1<<32 + 10, math.MaxInt64}
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = int(n)
	}
	return out
}

// TestScanHugeN: a request for more pairs than an int32 counts delivers
// the whole tail, on the callback and the batch form of Tree and Session.
func TestScanHugeN(t *testing.T) {
	keys, vals := sortedPairs(1000, 21)
	oracle := make(map[uint64]uint64, len(keys))
	for i, k := range keys {
		oracle[k] = vals[i]
	}
	a := BulkLoadAdaptive(AdaptiveConfig{Tree: Config{DefaultEncoding: EncSuccinct}}, keys, vals)
	defer a.Close()
	s := a.NewSession()
	var buf ScanBuffer
	for _, n := range hugeNs(t) {
		for _, from := range []uint64{0, keys[500], keys[999] + 1} {
			want := 0
			for k := range oracle {
				if k >= from {
					want++
				}
			}
			check := func(what string, got int, ks, vs []uint64) {
				t.Helper()
				if got != want || len(ks) != want {
					t.Fatalf("%s from %d N %d: returned %d, delivered %d pairs, want %d", what, from, n, got, len(ks), want)
				}
				for i, k := range ks {
					if v, ok := oracle[k]; !ok || v != vs[i] || k < from || (i > 0 && k <= ks[i-1]) {
						t.Fatalf("%s from %d N %d: pair %d is (%d,%d)", what, from, n, i, k, vs[i])
					}
				}
			}
			for what, scan := range map[string]func(uint64, int, func(k, v uint64) bool) int{
				"Tree.Scan": a.Tree.Scan, "Session.Scan": s.Scan,
			} {
				var ks, vs []uint64
				got := scan(from, n, func(k, v uint64) bool {
					ks, vs = append(ks, k), append(vs, v)
					return true
				})
				check(what, got, ks, vs)
			}
			for what, scan := range map[string]func([]ScanReq, ScanSink) int{
				"Tree.ScanBatch": a.Tree.ScanBatch, "Session.ScanBatch": s.ScanBatch,
			} {
				// A second, short request makes the batch take the shared
				// decode; alone the huge one decodes into the buffer directly.
				for _, reqs := range [][]ScanReq{{{From: from, N: n}}, {{From: from, N: n}, {From: keys[0], N: 3}}} {
					buf.Reset(len(reqs))
					got := scan(reqs, &buf)
					for _, r := range reqs[1:] {
						got -= r.N
					}
					check(what, got, buf.Keys(0), buf.Vals(0))
				}
			}
		}
	}
}

func TestScanMatchesElementwise(t *testing.T) {
	// The compatibility wrapper (callback Scan) now rides the bulk decode
	// kernel; it must stay pair-for-pair identical to the element-wise
	// path, including the early-stop count.
	for _, enc := range []core.Encoding{EncSuccinct, EncPacked, EncGapped} {
		tr, keys, _ := scanTree(t, enc, 10_000)
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 20; round++ {
			from := uint64(rng.Intn(len(keys) * 3))
			n := 1 + rng.Intn(2000)
			gk, gv := make([]uint64, 0, n), make([]uint64, 0, n)
			got := tr.Scan(from, n, func(k, v uint64) bool {
				gk = append(gk, k)
				gv = append(gv, v)
				return true
			})
			wk, wv := collectElementwise(tr, from, n)
			if got != len(wk) || len(gk) != len(wk) {
				t.Fatalf("enc=%v: Scan visited %d, want %d", enc, got, len(wk))
			}
			for j := range wk {
				if gk[j] != wk[j] || gv[j] != wv[j] {
					t.Fatalf("enc=%v pair %d: got (%d,%d) want (%d,%d)", enc, j, gk[j], gv[j], wk[j], wv[j])
				}
			}
			// Early stop after m pairs reports m (the stopping pair counts).
			m := 1 + rng.Intn(n)
			seen := 0
			got = tr.Scan(from, n, func(k, v uint64) bool {
				seen++
				return seen < m
			})
			want := m
			if len(wk) < m {
				want = len(wk)
			}
			if got != want {
				t.Fatalf("enc=%v early stop: visited %d, want %d", enc, got, want)
			}
		}
	}
}

// TestScanBatchVsIteratorUnderMigrationChurn is the satellite-2 oracle:
// with a migrator goroutine re-encoding random leaves (content-preserving
// by construction), a full iterator walk and a fused ScanBatch over the
// same ranges must both observe the exact static key set, in order. Run
// under -race this also exercises bulk decode against concurrent box
// swaps.
func TestScanBatchVsIteratorUnderMigrationChurn(t *testing.T) {
	tr, keys, _ := churnTree(t, 30_000)
	var leaves []*Leaf
	tr.WalkLeaves(func(l *Leaf) bool {
		leaves = append(leaves, l)
		return true
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(42))
		encs := []core.Encoding{EncGapped, EncPacked, EncSuccinct}
		for {
			select {
			case <-stop:
				return
			default:
			}
			l := leaves[rng.Intn(len(leaves))]
			tr.MigrateLeaf(l, encs[rng.Intn(len(encs))])
		}
	}()

	rng := rand.New(rand.NewSource(7))
	var buf ScanBuffer
	for round := 0; round < 40; round++ {
		nreq := 4
		reqs := make([]ScanReq, nreq)
		for i := range reqs {
			reqs[i] = ScanReq{From: uint64(rng.Intn(len(keys) * 7)), N: 500 + rng.Intn(1000)}
		}
		buf.Reset(nreq)
		tr.ScanBatch(reqs, &buf)
		it := tr.NewIterator()
		for i, r := range reqs {
			got := 0
			for ok := it.Seek(r.From); ok && got < r.N; ok = it.Next() {
				if it.Key() != buf.Keys(i)[got] || it.Value() != buf.Vals(i)[got] {
					t.Errorf("round %d req %d pair %d: iterator (%d,%d) vs ScanBatch (%d,%d)",
						round, i, got, it.Key(), it.Value(), buf.Keys(i)[got], buf.Vals(i)[got])
				}
				got++
				if t.Failed() {
					break
				}
			}
			if got != buf.Len(i) {
				t.Errorf("round %d req %d: iterator saw %d pairs, ScanBatch %d", round, i, got, buf.Len(i))
			}
			if t.Failed() {
				break
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	<-done
}

func TestScanBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tr, _, _ := scanTree(t, EncSuccinct, 40_000)
	reqs := []ScanReq{
		{From: 3_000, N: 256}, {From: 30_000, N: 256},
		{From: 60_000, N: 256}, {From: 90_000, N: 256},
		{From: 91_000, N: 256}, {From: 100_000, N: 256},
		{From: 110_000, N: 256}, {From: 111_000, N: 256},
	}
	var buf ScanBuffer
	// Warm the pools and grow the buffer to steady state.
	for i := 0; i < 4; i++ {
		buf.Reset(len(reqs))
		tr.ScanBatch(reqs, &buf)
	}
	allocs := testing.AllocsPerRun(50, func() {
		buf.Reset(len(reqs))
		tr.ScanBatch(reqs, &buf)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScanBatch allocated %.1f/op, want 0", allocs)
	}
}

func TestSessionScanBatchTracksSampledLeaves(t *testing.T) {
	keys := make([]uint64, 20_000)
	vals := make([]uint64, 20_000)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = uint64(i)
	}
	a := BulkLoadAdaptive(AdaptiveConfig{
		Tree:        Config{DefaultEncoding: EncSuccinct},
		InitialSkip: 1, MinSkip: 1, MaxSkip: 1,
		FixedSkip:    true,
		DisableBloom: true, // count first sightings directly in the store
	}, keys, vals)
	defer a.Close()
	s := a.NewSession()
	var buf ScanBuffer
	buf.Reset(2)
	n := s.ScanBatch([]ScanReq{{From: 0, N: 600}, {From: 30_000, N: 600}}, &buf)
	if n != 1200 {
		t.Fatalf("delivered %d pairs, want 1200", n)
	}
	s.Flush()
	if got := a.Mgr.TrackedUnits(); got == 0 {
		t.Fatal("skip=1 sampled ScanBatch tracked no leaves")
	}
}

func TestScanBatchReturnValuesAndLeafCount(t *testing.T) {
	tr, _, _ := scanTree(t, EncPacked, 10_000)
	var buf ScanBuffer
	buf.Reset(1)
	var tracked int32
	n, leaves := tr.scanWalk([]ScanReq{{From: 0, N: 1000}}, &buf, nil, func(*Leaf) {
		atomic.AddInt32(&tracked, 1)
	})
	if n != 1000 {
		t.Fatalf("delivered %d, want 1000", n)
	}
	if leaves == 0 || int(tracked) != leaves {
		t.Fatalf("leaf count %d, callback saw %d", leaves, tracked)
	}
}

// --- Benchmarks feeding the CI gates -----------------------------------

// benchScanTree: 256k pairs in encoding enc; Succinct is the
// configuration of the CI ratio gate.
func benchScanTree(b *testing.B, enc core.Encoding) (*Tree, int) {
	n := 1 << 18
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 3
		vals[i] = uint64(i)
	}
	return BulkLoad(Config{DefaultEncoding: enc}, keys, vals), n
}

const benchScanLen = 256

// benchReqs is 8 requests of pairs pairs each from random starts.
func benchReqs(n int, rng *rand.Rand, pairs int) []ScanReq {
	reqs := make([]ScanReq, 8)
	for i := range reqs {
		reqs[i] = ScanReq{From: uint64(rng.Intn(n)) * 3, N: pairs}
	}
	return reqs
}

// BenchmarkScanBatchSuccinct is the fused bulk path: 8 requests × 256
// pairs per op. Paired with BenchmarkScanElementwiseSuccinct in the same
// run, benchgate -ratio enforces the bulk-vs-element-wise speedup floor;
// -zero-allocs asserts the steady-state loop stays allocation-free.
func BenchmarkScanBatchSuccinct(b *testing.B) {
	tr, n := benchScanTree(b, EncSuccinct)
	rng := rand.New(rand.NewSource(1))
	reqs := benchReqs(n, rng, benchScanLen)
	var buf ScanBuffer
	buf.Reset(len(reqs))
	tr.ScanBatch(reqs, &buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset(len(reqs))
		tr.ScanBatch(reqs, &buf)
	}
}

// BenchmarkScanBatchGapped is the fused path over Gapped leaves, whose
// decode is a key copy plus an atomic load per value word (values are
// overwritten in place): 8 requests × 640 pairs per op, the middle of
// scan-long's 256-1024 range.
func BenchmarkScanBatchGapped(b *testing.B) {
	tr, n := benchScanTree(b, EncGapped)
	rng := rand.New(rand.NewSource(1))
	reqs := benchReqs(n, rng, 640)
	var buf ScanBuffer
	buf.Reset(len(reqs))
	tr.ScanBatch(reqs, &buf)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset(len(reqs))
		tr.ScanBatch(reqs, &buf)
	}
}

// BenchmarkScanElementwiseSuccinct is the pre-kernel baseline: the same 8
// ranges served by per-element keyAt/valAt scans.
func BenchmarkScanElementwiseSuccinct(b *testing.B) {
	tr, n := benchScanTree(b, EncSuccinct)
	rng := rand.New(rand.NewSource(1))
	reqs := benchReqs(n, rng, benchScanLen)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			scanElementwise(tr, r.From, r.N, func(k, v uint64) bool {
				sink += v
				return true
			})
		}
	}
	_ = sink
}

// BenchmarkScanBulkSuccinct is the compatibility wrapper (callback Scan
// on the bulk kernel) over the same ranges — the middle bar of the sweep.
func BenchmarkScanBulkSuccinct(b *testing.B) {
	tr, n := benchScanTree(b, EncSuccinct)
	rng := rand.New(rand.NewSource(1))
	reqs := benchReqs(n, rng, benchScanLen)
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			tr.Scan(r.From, r.N, func(k, v uint64) bool {
				sink += v
				return true
			})
		}
	}
	_ = sink
}

// BenchmarkScanSuccinct times one callback Scan of 10, 100 and 1000 pairs
// from a random start: the short lengths show Scan's fixed cost per call,
// the long one its decode rate (EXPERIMENTS.md, readengine).
func BenchmarkScanSuccinct(b *testing.B) {
	tr, n := benchScanTree(b, EncSuccinct)
	rng := rand.New(rand.NewSource(1))
	starts := make([]uint64, 1024)
	for i := range starts {
		starts[i] = uint64(rng.Intn(n-1000)) * 3
	}
	for _, pairs := range []int{10, 100, 1000} {
		b.Run(strconv.Itoa(pairs), func(b *testing.B) {
			var sink uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr.Scan(starts[i&1023], pairs, func(k, v uint64) bool {
					sink += v
					return true
				})
			}
			_ = sink
		})
	}
}

// TestScanBatchContractUnderChurn checks the scan consistency contract
// (scan.go header) while leaves change under the walk: fused requests,
// each spanning more than 16 leaves, run while one goroutine overwrites
// values and two migrators cycle every leaf through all encodings. The
// key set never changes, so each request must return exactly the static
// keys from its start, ascending and once each, and every value must be
// the initial one or one the overwriter wrote for that key.
func TestScanBatchContractUnderChurn(t *testing.T) {
	const n = 40_000
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(i) * 7
		vals[i] = keys[i] << 32 // generation 0
	}
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)

	// Write g stores keys[g*stride%n]<<32 | g, so a value names both its
	// key and the write that produced it.
	const stride = 7919 // prime, coprime to n
	keyOf := func(g uint64) uint64 { return keys[g*stride%n] }
	var written atomic.Uint64 // highest generation whose write has begun
	stop := make(chan struct{})
	var churn sync.WaitGroup
	spin := func(f func(i int)) {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					f(i)
				}
			}
		}()
	}
	spin(func(int) {
		g := written.Add(1)
		tr.Insert(keyOf(g), keyOf(g)<<32|g)
	})
	targets := []core.Encoding{EncGapped, EncPacked, EncSuccinct}
	for m := 0; m < 2; m++ {
		spin(func(i int) {
			tgt := targets[(i+m)%len(targets)]
			tr.WalkLeaves(func(l *Leaf) bool {
				tr.MigrateLeaf(l, tgt)
				return true
			})
		})
	}

	rng := rand.New(rand.NewSource(3))
	const span = 24 * LeafCap // > 16 leaves even at full occupancy
	var buf ScanBuffer
	// At least 20 rounds, and on until the churn has visibly run (bounded,
	// so a stalled churner fails the check below instead of hanging).
	churned := func() bool { return written.Load() > 1000 && tr.Compactions() > 0 }
	for round := 0; (round < 20 || !churned()) && round < 1<<16 && !t.Failed(); round++ {
		reqs := make([]ScanReq, 3)
		for i := range reqs {
			reqs[i] = ScanReq{From: uint64(rng.Intn((n - span) * 7)), N: span}
		}
		buf.Reset(len(reqs))
		tr.ScanBatch(reqs, &buf)
		hi := written.Load()
		for i, r := range reqs {
			start, _ := slices.BinarySearch(keys, r.From)
			want := keys[start : start+r.N]
			if got := buf.Keys(i); !slices.Equal(got, want) {
				t.Errorf("round %d req %d: %d keys, want the %d static keys from %d", round, i, len(got), len(want), r.From)
				continue
			}
			for j, k := range buf.Keys(i) {
				v := buf.Vals(i)[j]
				g := v & (1<<32 - 1)
				if v>>32 != k || g > hi || (g != 0 && keyOf(g) != k) {
					t.Errorf("round %d req %d: key %d has value %#x, which no write produced", round, i, k, v)
					break
				}
			}
		}
	}
	close(stop)
	churn.Wait()
	if !churned() {
		t.Fatal("the overwriter and migrators barely ran; the test did not exercise the contract")
	}
}
