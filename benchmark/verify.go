package main

import (
	"fmt"
	"io"
	"sort"

	"ahi"
)

// reader is the read surface the verification sweep needs; a Session and
// a ShardedBTree both have it.
type reader interface {
	Lookup(k uint64) (uint64, bool)
	ScanBatch(reqs []ahi.ScanReq, sink ahi.ScanSink) int
}

// expected rebuilds, from the streams and how far each client got, what
// the index must hold now: for every data-set position the value of the
// last write to it (the bulk-loaded value if none), plus the live churn
// keys. Replaying only the write entries keeps the oracle out of the timed
// loop entirely.
func (r *runner) expected() (vals []uint64, written []uint32, live, dead []int) {
	w := r.w
	vals = append([]uint64(nil), w.vals...)
	if w.cfg.corrupt {
		vals[0] -= 1 << tagShift // the oracle knows the right value
	}
	// lastSeq is the sequence number of the latest write to a position: a
	// key that occurs twice in a stream was last written by whichever
	// occurrence ran in the later pass.
	lastSeq := make(map[uint32]uint64)
	for _, c := range r.clients {
		for _, s := range c.streams {
			length := uint64(len(s.ops))
			for p, e := range s.ops {
				if uint64(p) >= s.executed || (e.kind != opOverwrite && e.kind != opInsertBatch) {
					continue
				}
				// Last pass in which entry p ran.
				seq := s.seqBase + uint64(p) + length*((s.executed-1-uint64(p))/length)
				if prev, ok := lastSeq[e.idx]; !ok || seq > prev {
					lastSeq[e.idx] = seq
					vals[e.idx] = w.value(e.key, seq)
				}
			}
		}
	}
	for idx := range lastSeq {
		written = append(written, idx)
	}
	sort.Slice(written, func(i, j int) bool { return written[i] < written[j] })

	// Only single-client workloads churn.
	c := r.clients[0]
	ring := uint64(len(w.fresh))
	for j := c.del; j < c.ins; j++ {
		live = append(live, int(j%ring))
	}
	sort.Slice(live, func(i, j int) bool { return w.fresh[live[i]] < w.fresh[live[j]] })
	// Ring slots whose latest insert has been deleted again.
	for j := c.del; j > 0 && c.ins-(j-1) <= ring; j-- {
		dead = append(dead, int((j-1)%ring))
	}
	return vals, written, live, dead
}

// verify sweeps the whole index with ScanBatch and compares count, order
// and every value against the oracle, then looks up every key the run
// wrote or deleted. It returns the checks made and how many failed.
func (r *runner) verify(idx reader, indexLen int, log io.Writer) (checks, failed int64) {
	w := r.w
	vals, written, live, dead := r.expected()
	report := func(format string, args ...any) {
		if failed++; failed <= 5 {
			fmt.Fprintf(log, "  verify: "+format+"\n", args...)
		}
	}

	// Merge of data set and live churn keys, consumed in key order.
	bi, li := 0, 0
	next := func() (k, v uint64, ok bool) {
		switch {
		case bi < len(w.keys) && (li >= len(live) || w.keys[bi] < w.fresh[live[li]]):
			k, v = w.keys[bi], vals[bi]
			bi++
		case li < len(live):
			k, v = w.fresh[live[li]], w.freshVal[live[li]]
			li++
		default:
			return 0, 0, false
		}
		return k, v, true
	}
	want := len(w.keys) + len(live)
	const chunk = 1 << 16
	var buf ahi.ScanBuffer
	from, got := uint64(0), 0
	for {
		buf.Reset(1)
		n := idx.ScanBatch([]ahi.ScanReq{{From: from, N: chunk}}, &buf)
		ks, vs := buf.Keys(0), buf.Vals(0)
		for i := range ks {
			checks++
			k, v, ok := next()
			switch {
			case !ok:
				report("phantom key %#x after the last expected key", ks[i])
			case ks[i] != k:
				report("pair %d: key %#x, want %#x", got+i, ks[i], k)
			case vs[i] != v:
				report("key %#x: value %#x, want %#x (lost or stale write)", k, vs[i], v)
			}
		}
		got += n
		if n < chunk || ks[n-1] == ^uint64(0) {
			break
		}
		from = ks[n-1] + 1
	}
	checks++
	if got != want || indexLen != want {
		report("swept %d pairs, Len() = %d, want %d", got, indexLen, want)
	}

	lookup := func(k, v uint64, present bool) {
		checks++
		g, ok := idx.Lookup(k)
		if ok != present || (present && g != v) {
			report("Lookup(%#x) = %#x, %v; want %#x, %v", k, g, ok, v, present)
		}
	}
	for _, i := range written {
		lookup(w.keys[i], vals[i], true)
	}
	for _, s := range live {
		lookup(w.fresh[s], w.freshVal[s], true)
	}
	for _, s := range dead {
		lookup(w.fresh[s], 0, false)
	}
	return checks, failed
}
