package btree

import (
	"ahi/internal/core"
	"ahi/internal/obs"
)

// Flight-recorder integration: when the attached Observability bundle has
// tracing enabled (obs.EnableTracing), every Session binds the tree's
// per-source OpRecorder scope and its operations run through the traced
// variants below. They mirror the fast paths exactly — same cache
// bypass/admission rules, same sampling semantics — but thread an
// obs.OpEvent through the descent so each op leaves with its lifecycle
// stages measured: cache probe (and torn seqlock ways), negative-filter
// rejection, descent depth and B-link right-hops, epoch-pin spins, insert
// write-retries, parked-intent backpressure, and overlap with in-flight
// migrations. Untraced sessions (rec == nil) pay exactly one predictable
// branch per operation.

// lookupLeafProf is lookupLeaf with stage accounting into ev: descent
// depth, right-link chases, epoch-pin spins and negative-filter hits.
func (t *Tree) lookupLeafProf(k uint64, ev *obs.OpEvent) (uint64, *Leaf, bool) {
	slot := t.epochs.pinProf(&ev.PinSpins)
	node := t.root.Load()
	var leaf *Leaf
	for {
		b := node.box.Load()
		if !b.covers(k) && b.next != nil {
			node = b.next
			ev.RightHops++
			continue
		}
		ev.Depth++
		c := b.children[b.childIdx(k)]
		if b.leafLevel() {
			leaf = c.leaf
			break
		}
		node = c.inner
	}
	var lb *leafBox
	for {
		lb = leaf.box.Load()
		if lb.covers(k) || lb.next == nil {
			break
		}
		leaf = lb.next
		ev.RightHops++
	}
	if sp, ok := lb.p.(*succinct); ok && !sp.mayContain(k) {
		t.negHits.Add(1)
		ev.NegFiltered = true
		t.epochs.unpin(slot)
		return 0, leaf, false
	}
	if i, found := lb.p.search(k); found {
		v := lb.p.valAt(i)
		t.epochs.unpin(slot)
		return v, leaf, true
	}
	t.epochs.unpin(slot)
	return 0, leaf, false
}

// beginOp arms the session probe for one traced op and returns its event.
func (s *Session) beginOp(kind obs.OpKind, key uint64) *obs.OpEvent {
	s.recTick++
	s.rec.Begin(&s.probe, kind, key, s.recTick&s.rec.SampleMask() == 0)
	return &s.probe.Ev
}

// finishOp stamps the cross-op signals only the end of the op can see —
// migration overlap (with the exemplar trace seq) and parked-intent
// backpressure — and commits the probe.
func (s *Session) finishOp() {
	ev := &s.probe.Ev
	if s.a.Tree.migActive.Load() > 0 {
		ev.MigOverlap = true
		ev.MigSeq = s.rec.MigrationSeqHint()
	}
	if d := s.a.Mgr.DeferredMigrations(); d > 0 {
		ev.Deferred = int32(d)
	}
	s.probe.End()
}

func (s *Session) lookupTraced(k uint64) (uint64, bool) {
	ev := s.beginOp(obs.OpLookup, k)
	sample := s.sampler.IsSample()
	var v uint64
	var ok bool
	if s.c == nil {
		var leaf *Leaf
		v, leaf, ok = s.a.Tree.lookupLeafProf(k, ev)
		if sample {
			s.sampler.Track(leaf, core.Read, LeafCtx{})
		}
	} else {
		var snap uint64
		served := false
		if sample {
			snap = s.c.Snap(k)
		} else if cv, sn, torn, hit := s.c.ProbeOrSnapProf(k); hit {
			ev.CacheTorn = torn
			ev.CacheHit = true
			v, ok, served = cv, true, true
		} else {
			ev.CacheTorn = torn
			snap = sn
		}
		if !served {
			var leaf *Leaf
			v, leaf, ok = s.a.Tree.lookupLeafProf(k, ev)
			if sample {
				s.sampler.Track(leaf, core.Read, LeafCtx{})
			}
			if ok {
				s.c.Admit(k, v, snap, sample, sample || s.admitGate())
			}
		}
	}
	ev.Found = ok
	s.finishOp()
	return v, ok
}

func (s *Session) insertTraced(k, v uint64) bool {
	ev := s.beginOp(obs.OpInsert, k)
	sample := s.sampler.IsSample()
	inserted, leaf, expanded := s.a.Tree.insertTrackedProf(k, v, &ev.WriteRetries)
	if sample || expanded {
		s.sampler.Track(leaf, core.Insert, LeafCtx{})
	}
	ev.Found = inserted
	s.finishOp()
	return inserted
}

func (s *Session) deleteTraced(k uint64) bool {
	ev := s.beginOp(obs.OpDelete, k)
	sample := s.sampler.IsSample()
	ok, leaf := s.a.Tree.deleteTracked(k, &ev.WriteRetries)
	if sample {
		s.sampler.Track(leaf, core.Delete, LeafCtx{})
	}
	ev.Found = ok
	s.finishOp()
	return ok
}

func (s *Session) scanTraced(from uint64, n int, fn func(k, v uint64) bool) int {
	ev := s.beginOp(obs.OpScan, from)
	var visited int
	if !s.sampler.IsSample() {
		visited = s.a.Tree.Scan(from, n, fn)
	} else {
		visited = s.a.Tree.scanLeaves(from, n, fn, func(l *Leaf) {
			s.sampler.Track(l, core.Scan, LeafCtx{})
		})
	}
	ev.Ops = int32(visited)
	ev.BulkDecode = true
	s.finishOp()
	return visited
}

// scanBatchTraced records one coarse event per fused scan batch: pairs
// delivered (Ops), request count (Fanout), leaves visited, and the
// cross-op signals finishOp stamps.
func (s *Session) scanBatchTraced(reqs []ScanReq, sink ScanSink) int {
	var k0 uint64
	if len(reqs) > 0 {
		k0 = reqs[0].From
	}
	ev := s.beginOp(obs.OpScanBatch, k0)
	n, leaves := s.scanBatchFast(reqs, sink)
	ev.Ops = int32(n)
	ev.Fanout = int32(len(reqs))
	ev.Leaves = int32(leaves)
	ev.BulkDecode = true
	s.finishOp()
	return n
}

// Batch ops record one coarse event per call (kind, size, duration, and
// the cross-op signals) rather than per-key stage detail: the batch
// kernels are interleaved across keys, so per-key attribution would mean
// per-key probes — exactly the overhead batching exists to amortize.

func (s *Session) lookupBatchTraced(keys, vals []uint64, found []bool) {
	var k0 uint64
	if len(keys) > 0 {
		k0 = keys[0]
	}
	ev := s.beginOp(obs.OpLookupBatch, k0)
	s.lookupBatchFast(keys, vals, found)
	ev.Ops = int32(len(keys))
	s.finishOp()
}

func (s *Session) insertBatchTraced(keys, vals []uint64, inserted []bool) {
	var k0 uint64
	if len(keys) > 0 {
		k0 = keys[0]
	}
	ev := s.beginOp(obs.OpInsertBatch, k0)
	s.insertBatchFast(keys, vals, inserted)
	ev.Ops = int32(len(keys))
	s.finishOp()
}
