package btree

import (
	"math"
	"sync"
)

// Batched range-scan serving. A range scan is the access pattern the
// compact leaf encodings are supposed to reward: once positioned, the
// payload is consumed sequentially, so the per-element shift/mask tax of
// the bit-packed layouts can be amortized by decoding whole leaf windows
// at once (payload.decodeRange → bitutil DecodeRange, which unpacks an
// element with one unaligned load and a constant shift, eight at a time).
// ScanBatch builds on that kernel and fuses multiple concurrent
// range requests over one B-link walk:
//
//   - Request start keys are sorted with the batch.go radix machinery, so
//     the walk visits each leaf at most once and every request attaches to
//     it ("activates") exactly where its range begins.
//   - Each visited leaf is bulk-decoded once into pooled scratch covering
//     the union of the active requests' windows; per-request segments are
//     sliced out of the shared decode, so N overlapping requests cost one
//     unpack, not N.
//   - While the current leaf decodes, the next leaves' box images are
//     loaded through a small lookahead ring (the same AMAC-style idea as
//     the batch-lookup ring): the loads of upcoming payload headers are
//     issued early and overlap in the memory system with the decode work.
//   - Results are delivered through a reusable buffer API (ScanSink /
//     ScanBuffer) — no per-pair callback on the fast path, and a
//     steady-state batch performs zero allocations.
//
// Consistency contract: each leaf is read from one image, loaded when the
// walk reaches the leaf (or, through the lookahead ring, at most batchRing
// leaves earlier). The walk sees concurrent splits only through sibling
// links: an image loaded before its leaf split still holds the moved keys
// and links past the new sibling, so no key is lost or returned twice, and
// keys come back ascending within a request. A returned value is one the
// leaf held during the walk — the image's own, or one an overwrite stored
// into a Gapped or Packed image in place while the walk read it — never a
// value nobody wrote. Nothing in the walk blocks writers or migrations, and
// no leaf memory is recycled under it: a displaced image lives on for as
// long as the walk holds it, like any other Go value. Iterator gives the
// same per-leaf guarantee.
//
// This walk is the package's one range walk: Scan is a batch of one
// request whose pairs go to the caller's callback instead of a sink, so
// callback scans and fused batches share the positioning, the bulk decode
// and the per-leaf tracking hook.

// ScanReq is one range request of a batch: up to N pairs with key >= From
// in ascending key order.
type ScanReq struct {
	From uint64
	N    int
}

// ScanSink receives decoded result segments. Emit may be called several
// times per request — segments arrive in ascending key order within a
// request, while segments of different requests interleave arbitrarily.
// The slices alias reusable scratch: they are valid only for the duration
// of the Emit call and must be consumed (or copied) before returning.
type ScanSink interface {
	Emit(req int, keys, vals []uint64)
}

// ScanBuffer is the reusable concrete sink: it copies emitted segments
// into per-request buffers that persist across Reset, so a steady-state
// caller re-using one buffer allocates nothing.
type ScanBuffer struct {
	ks, vs [][]uint64
}

// Reset prepares the buffer for a batch of n requests, truncating (but
// keeping) the per-request result buffers.
func (b *ScanBuffer) Reset(n int) {
	if cap(b.ks) < n {
		ks := make([][]uint64, n)
		vs := make([][]uint64, n)
		copy(ks, b.ks)
		copy(vs, b.vs)
		b.ks, b.vs = ks, vs
	}
	b.ks, b.vs = b.ks[:n], b.vs[:n]
	for i := range b.ks {
		b.ks[i] = b.ks[i][:0]
		b.vs[i] = b.vs[i][:0]
	}
}

// Emit implements ScanSink.
func (b *ScanBuffer) Emit(req int, keys, vals []uint64) {
	b.ks[req] = append(b.ks[req], keys...)
	b.vs[req] = append(b.vs[req], vals...)
}

// scanDirectSink is an optional ScanSink extension: when a leaf serves a
// single request, the walk asks the sink for a destination window and
// decodes into it directly, skipping the intermediate scratch buffer and
// its copy. Only sinks that retain emitted data can offer this; callback
// adapters stay on the Emit path.
type scanDirectSink interface {
	dst(req, n int) (ks, vs []uint64)
}

// dst implements scanDirectSink: it extends request req's buffers by n
// and returns the fresh tails for the decoder to fill.
func (b *ScanBuffer) dst(req, n int) ([]uint64, []uint64) {
	kb, base := growBy(b.ks[req], n)
	vb, _ := growBy(b.vs[req], n)
	b.ks[req], b.vs[req] = kb, vb
	return kb[base:], vb[base:]
}

// growBy extends s by n elements (reusing capacity when possible) and
// returns the new slice plus the old length.
func growBy(s []uint64, n int) ([]uint64, int) {
	base := len(s)
	if cap(s)-base >= n {
		return s[:base+n], base
	}
	ns := make([]uint64, base+n, (base+n)*2)
	copy(ns, s)
	return ns, base
}

// Len returns the number of pairs collected for request req.
func (b *ScanBuffer) Len(req int) int { return len(b.ks[req]) }

// Keys returns request req's collected keys (valid until the next Reset).
func (b *ScanBuffer) Keys(req int) []uint64 { return b.ks[req] }

// Vals returns request req's collected values.
func (b *ScanBuffer) Vals(req int) []uint64 { return b.vs[req] }

// scanActive is one request currently attached to the walk.
type scanActive struct {
	req int32 // request index (caller's numbering)
	off int32 // start offset within the current leaf
	rem int   // pairs still wanted; as wide as ScanReq.N
}

// end is the offset in the current leaf where the request's window stops
// if the leaf is long enough. A request may want math.MaxInt pairs ("to
// the end"), so the sum saturates.
func (a scanActive) end() int {
	if e := int(a.off) + a.rem; e >= 0 {
		return e
	}
	return math.MaxInt
}

// feed hands pairs to Scan's callback until it returns false; it returns
// how many it handed over, the stopping pair included, and whether the
// callback asked to stop. Its own function and never inlined: a call
// clobbers every register, and inside the walk the loop would reload a
// dozen of the walk's spilled variables after each pair (0.8 ns a pair).
//
//go:noinline
func feed(fn func(k, v uint64) bool, ks, vs []uint64) (int, bool) {
	for i, k := range ks {
		if !fn(k, vs[i]) {
			return i + 1, true
		}
	}
	return len(ks), false
}

// scanScratch is the pooled per-walk state: bulk-decode buffers sized to
// the leaf capacity, the request start keys handed to the radix sort, and
// the active set.
type scanScratch struct {
	ks, vs []uint64
	froms  []uint64
	active []scanActive
	// starts caches each request's pre-descended start leaf (by sorted
	// position); the box image is loaded at use.
	starts []*Leaf
	// sink absorbs payload touch sums so the prefetch loads cannot be
	// dead-code-eliminated.
	sink uint64
}

var scanPool = sync.Pool{New: func() any {
	return &scanScratch{
		ks:     make([]uint64, LeafCap),
		vs:     make([]uint64, LeafCap),
		froms:  make([]uint64, 0, 128),
		active: make([]scanActive, 0, 16),
		starts: make([]*Leaf, 0, 128),
	}
}}

// size grows the decode buffers for an oversized (defensive-path) leaf.
func (sc *scanScratch) size(n int) {
	if len(sc.ks) < n {
		sc.ks = make([]uint64, n)
		sc.vs = make([]uint64, n)
	}
}

// ScanBatch serves len(reqs) range requests through one fused B-link walk
// and returns the total number of pairs delivered. Results stream into
// sink; use a ScanBuffer to collect them without allocation. Requests may
// overlap arbitrarily — overlapping windows share leaf decodes.
func (t *Tree) ScanBatch(reqs []ScanReq, sink ScanSink) int {
	n, _ := t.scanWalk(reqs, sink, nil, nil)
	return n
}

// Scan visits up to n key/value pairs with key >= from in ascending order
// and returns how many were visited. The callback may stop the scan early
// by returning false; visited counts the pairs delivered.
func (t *Tree) Scan(from uint64, n int, fn func(k, v uint64) bool) int {
	visited, _ := t.scanTracked(from, n, fn, nil)
	return visited
}

// scanTracked is Scan plus the per-leaf tracking callback; it returns
// (pairs handed to fn, leaves visited).
func (t *Tree) scanTracked(from uint64, n int, fn func(k, v uint64) bool, onLeaf func(*Leaf)) (int, int) {
	req := [1]ScanReq{{From: from, N: n}}
	return t.scanWalk(req[:], nil, fn, onLeaf)
}

// scanWalk is the range walk: ScanBatch plus a per-visited-leaf callback
// for access tracking. The pairs of each request go to sink, or, when fn
// is not nil, one by one to fn until it returns false (Scan: fn is only
// ever called, never stored, so the caller's closure stays on its stack).
// It returns (pairs delivered, leaves visited).
func (t *Tree) scanWalk(reqs []ScanReq, sink ScanSink, fn func(k, v uint64) bool, onLeaf func(*Leaf)) (int, int) {
	if len(reqs) == 0 {
		return 0, 0
	}
	sc := scanPool.Get().(*scanScratch)
	// A batch of one — every Scan — has nothing to sort and no second
	// start leaf to overlap its misses with: it skips the sort scratch (a
	// pool round trip and a sort of one) and the start-leaf touch (a load
	// per cache line of a payload it may want ten pairs of).
	single := len(reqs) == 1
	var one [1]int
	order := one[:]
	var bs *batchScratch
	if !single {
		bs = batchPool.Get().(*batchScratch)
		froms := sc.froms[:0]
		for _, r := range reqs {
			froms = append(froms, r.From)
		}
		sc.froms = froms
		order = bs.sortOrder(froms)
	}
	direct, _ := sink.(scanDirectSink)

	// Lookahead ring: box images of upcoming leaves, loaded ahead of the
	// current leaf's decode so their cache misses overlap with the unpack
	// work.
	var ring [batchRing]*leafBox
	ringN := 0

	active := sc.active[:0]
	delivered, visited := 0, 0
	stopped := false // fn returned false
	pi := 0
	var leaf *Leaf
	var box *leafBox

	// Pre-descend every request's start leaf and touch its payload: the
	// descents run back to back, so each request's start-leaf misses are
	// issued while the next descent computes, instead of serializing one
	// cold leaf per request inside the walk. Only the GC-stable *Leaf
	// crosses into the walk; the box image is re-loaded at use.
	starts := sc.starts[:0]
	for _, r := range order {
		if reqs[r].N <= 0 {
			starts = append(starts, nil)
			continue
		}
		l, _ := t.descend(reqs[r].From, nil, nil)
		nl, nb := moveRightLeaf(l, reqs[r].From, nil)
		starts = append(starts, nl)
		if !single {
			sc.sink += nb.p.touch()
		}
	}
	sc.starts = starts

	for pi < len(order) || len(active) > 0 {
		if box == nil {
			// Position at the next pending request's first leaf.
			for pi < len(order) && reqs[order[pi]].N <= 0 {
				pi++
			}
			if pi == len(order) {
				break
			}
			leaf, box = moveRightLeaf(starts[pi], reqs[order[pi]].From, nil)
			ringN = 0
		}
		// Activate every pending request this leaf covers. Sorted starts
		// guarantee each pending From is >= the leaf's lower bound: the
		// walk only moves right past leaves whose range the request's From
		// already cleared.
		for pi < len(order) {
			r := order[pi]
			if reqs[r].N <= 0 {
				pi++
				continue
			}
			if !box.covers(reqs[r].From) {
				break
			}
			pos, _ := box.p.search(reqs[r].From)
			active = append(active, scanActive{req: int32(r), off: int32(pos), rem: reqs[r].N})
			pi++
		}
		visited++
		if onLeaf != nil {
			onLeaf(leaf)
		}
		cnt := box.p.count()
		if len(active) > 0 {
			// Top up the lookahead ring before decoding, within remaining
			// demand: a short request must not chase box images of leaves
			// the walk will never reach.
			need := 0
			for _, a := range active {
				if end := a.end(); end > need {
					need = end
				}
			}
			// Leaves past the current one the walk will still visit,
			// estimated at half occupancy so a sparse run of leaves cannot
			// starve the prefetch. Demand beyond the ring's reach is all
			// the same to it (and may be math.MaxInt).
			if need > cnt+batchRing*LeafCap {
				need = cnt + batchRing*LeafCap
			}
			limit := min(batchRing, (need-cnt+LeafCap/2-1)/(LeafCap/2))
			tail := box
			if ringN > 0 {
				tail = ring[ringN-1]
			}
			for ringN < limit && tail.next != nil {
				tail = tail.next.box.Load()
				ring[ringN] = tail
				ringN++
			}

			if len(active) == 1 && direct != nil {
				// Single-request leaf (the common case for spread starts):
				// decode straight into the sink's retained buffer, skipping
				// the scratch round-trip and Emit's copy.
				a := &active[0]
				end := a.end()
				if end > cnt {
					end = cnt
				}
				if m := end - int(a.off); m > 0 {
					dk, dv := direct.dst(int(a.req), m)
					box.p.decodeRange(int(a.off), end, dk, dv)
					delivered += m
					a.rem -= m
				}
				if a.rem <= 0 || box.next == nil {
					active = active[:0]
				} else {
					a.off = 0
				}
			} else {
				// One bulk decode covers the union of the active windows.
				lo, hi := cnt, 0
				for _, a := range active {
					if int(a.off) < lo {
						lo = int(a.off)
					}
					if end := a.end(); end > hi {
						hi = end
					}
				}
				if hi > cnt {
					hi = cnt
				}
				if hi > lo {
					sc.size(hi - lo)
					box.p.decodeRange(lo, hi, sc.ks, sc.vs)
				}
				live := active[:0]
				for _, a := range active {
					end := a.end()
					if end > hi {
						end = hi
					}
					if m := end - int(a.off); m > 0 {
						ks, vs := sc.ks[int(a.off)-lo:end-lo], sc.vs[int(a.off)-lo:end-lo]
						if fn == nil {
							sink.Emit(int(a.req), ks, vs)
						} else {
							m, stopped = feed(fn, ks, vs)
						}
						delivered += m
						a.rem -= m
					}
					if a.rem > 0 && box.next != nil {
						a.off = 0
						live = append(live, a)
					}
				}
				active = live
				if stopped {
					break
				}
			}
		}
		// Advance: continue right while requests remain attached; otherwise
		// chain a bounded number of hops toward the next pending request's
		// leaf, falling back to a fresh descent when it is far away.
		if len(active) > 0 {
			leaf = box.next
			if ringN > 0 {
				box = ring[0]
				copy(ring[:ringN-1], ring[1:ringN])
				ringN--
			} else {
				box = leaf.box.Load()
			}
		} else if pi < len(order) {
			if nl, nb, ok := chainRight(box, reqs[order[pi]].From); ok {
				leaf, box = nl, nb
				ringN = 0
			} else {
				box = nil // fresh descent next iteration
			}
		} else {
			break
		}
	}
	sc.active = active[:0]
	clear(sc.starts) // don't retain leaves beyond the call
	sc.starts = sc.starts[:0]
	scanPool.Put(sc)
	if !single {
		batchPool.Put(bs)
	}
	return delivered, visited
}
