package shard

import (
	"sync"

	"ahi/internal/btree"
	"ahi/internal/obs"
)

// Cross-shard batched range scans. Requests are split at shard
// boundaries: each request starts on the shard owning its From key and,
// if that shard's key range runs dry before N pairs are delivered,
// continues on the next shard at its first routed key (the same
// continuation protocol as the sequential Scan above, batched). Rounds
// proceed left to right — round r runs every request's current shard
// sub-batch through the per-shard fused ScanBatch kernel, placed by fanOut
// like a batch's segments — and after each round the partial results are
// stitched into the caller's sink in request order, with no session held.
// Per-request segments therefore arrive in ascending key order across
// shard boundaries; segments of different requests interleave.

// scanPart tracks one request's progress across rounds.
type scanPart struct {
	req  int32  // original request index
	g    int32  // shard serving the current round
	pos  int32  // position within shard g's sub-batch this round
	rem  int    // pairs still wanted; as wide as ScanReq.N
	from uint64 // continuation key
}

// scanRoute is the pooled per-call scratch: the live parts plus one
// sub-batch and result buffer per shard.
type scanRoute struct {
	parts []scanPart
	subs  [][]btree.ScanReq
	bufs  []*btree.ScanBuffer
}

var scanRoutePool = sync.Pool{New: func() any { return &scanRoute{} }}

func (rs *scanRoute) ensure(ns int) {
	for len(rs.subs) < ns {
		rs.subs = append(rs.subs, nil)
		rs.bufs = append(rs.bufs, &btree.ScanBuffer{})
	}
}

// ScanBatch serves len(reqs) range requests across the shard front-end
// and returns the total pairs delivered. Requests spanning several shards
// are split and continued; per-shard sub-batches run the fused
// btree.ScanBatch kernel, large ones beside the caller's own on the worker
// pool. Emitted segments follow the ScanSink contract (ascending per
// request, valid only during Emit); all Emit calls happen on the caller's
// goroutine.
func (s *ShardedBTree) ScanBatch(reqs []btree.ScanReq, sink btree.ScanSink) int {
	if len(reqs) == 0 {
		return 0
	}
	var p obs.OpProbe
	if s.frontRec != nil {
		s.frontRec.Begin(&p, obs.OpScanBatch, reqs[0].From,
			s.frontTick.Add(1)&s.frontRec.SampleMask() == 0)
	}
	total, fan := 0, 1
	if len(s.shards) == 1 {
		sh := s.shards[0]
		sh.ops.Add(int64(len(reqs)))
		ses := sh.acquire()
		total = ses.ScanBatch(reqs, sink)
		sh.release(ses)
	} else {
		total, fan = s.scanBatchFanOut(reqs, sink)
	}
	if s.frontRec != nil {
		p.Ev.Ops = int32(total)
		p.Ev.Fanout = int32(fan)
		p.Ev.BulkDecode = true
		p.End()
	}
	return total
}

// scanBatchFanOut is the multi-shard path: round-based split, parallel
// per-shard execution, ordered stitch. Returns (pairs, max shards touched
// in one round).
func (s *ShardedBTree) scanBatchFanOut(reqs []btree.ScanReq, sink btree.ScanSink) (int, int) {
	ns := len(s.shards)
	rs := scanRoutePool.Get().(*scanRoute)
	rs.ensure(ns)
	parts := rs.parts[:0]
	for i, r := range reqs {
		if r.N <= 0 {
			continue
		}
		parts = append(parts, scanPart{
			req: int32(i), g: int32(s.shardOf(r.From)), from: r.From, rem: r.N,
		})
	}
	// A request weighs as one key, whatever its length: bulk decode is
	// bound by memory bandwidth, so with one request a shard a handoff
	// loses 37 % at 4096 pairs and gains 11 % at 65536 (EXPERIMENTS.md,
	// shardfront).
	size := func(g int) int { return len(rs.subs[g]) }
	run := func(g int, ses *btree.Session) {
		sub := rs.subs[g]
		s.shards[g].ops.Add(int64(len(sub)))
		buf := rs.bufs[g]
		buf.Reset(len(sub))
		ses.ScanBatch(sub, buf)
	}
	total, maxFan := 0, 0
	for len(parts) > 0 {
		for g := range rs.subs[:ns] {
			rs.subs[g] = rs.subs[g][:0]
		}
		touched := 0
		for pi := range parts {
			pt := &parts[pi]
			g := int(pt.g)
			if len(rs.subs[g]) == 0 {
				touched++
			}
			pt.pos = int32(len(rs.subs[g]))
			rs.subs[g] = append(rs.subs[g], btree.ScanReq{From: pt.from, N: pt.rem})
		}
		if touched > maxFan {
			maxFan = touched
		}
		s.fanOut(size, run)
		// Stitch this round's partial results in request order, then build
		// the continuation set: a request whose shard delivered fewer pairs
		// than asked has exhausted that shard's key range and resumes on
		// the next shard at its first routed key.
		live := 0
		for pi := range parts {
			pt := &parts[pi]
			buf := rs.bufs[pt.g]
			if n := buf.Len(int(pt.pos)); n > 0 {
				sink.Emit(int(pt.req), buf.Keys(int(pt.pos)), buf.Vals(int(pt.pos)))
				total += n
				pt.rem -= n
			}
			if pt.rem > 0 && int(pt.g) < ns-1 {
				pt.from = s.bounds[pt.g]
				pt.g++
				parts[live] = *pt
				live++
			}
		}
		parts = parts[:live]
	}
	rs.parts = parts[:0]
	scanRoutePool.Put(rs)
	return total, maxFan
}
