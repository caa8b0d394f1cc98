package btree

import (
	"sync"

	"ahi/internal/core"
	"ahi/internal/obs"
	"ahi/internal/wal"
)

// Batch traversal. A root-to-leaf walk is a chain of dependent loads: each
// level's box pointer comes out of the previous level's cache miss, so a
// single lookup exposes no memory-level parallelism. LookupBatch instead
// keeps a small ring of traversals in flight, AMAC-style: each pass over
// the ring advances every live traversal by exactly one level, so the
// cache misses of up to batchRing independent walks overlap in the memory
// system instead of serializing. Go has no portable prefetch intrinsic;
// the interleaving relies on out-of-order cores overlapping the
// independent loads the ring exposes back to back.
//
// Batches are processed in key order. Sorting buys three things on top of
// the interleaving: duplicate keys become adjacent (one leaf probe serves
// all copies — significant under the skewed distributions the serving
// bench runs), consecutive keys that land in the same leaf are served by
// one descent (the run is drained straight off the shared cursor), and
// leaf accesses stay in address-ascending order, which the hardware
// prefetcher rewards.

// batchRing is the number of in-flight traversals. Eight keeps the ring
// state in registers/L1 while covering typical DRAM latency at one level
// step per slot visit.
const batchRing = 8

// batchMin is the batch size below which the ring setup is not worth it
// and the batch degenerates to sequential per-key operations.
const batchMin = 4

type batchScratch struct {
	order []int
	pairs []kvOrd
	tmp   []kvOrd
}

var batchPool = sync.Pool{New: func() any {
	return &batchScratch{
		order: make([]int, 0, 128),
		pairs: make([]kvOrd, 0, 128),
		tmp:   make([]kvOrd, 0, 128),
	}
}}

// kvOrd is one (key, position) pair of a batch; sorting pairs directly
// keeps the hot comparison loop free of the keys[order[i]] indirection.
type kvOrd struct {
	k uint64
	i int32
}

// pairLess orders by key, ties broken by position so duplicate inserts
// keep their submission order (last wins).
func pairLess(x, y kvOrd) bool { return x.k < y.k || (x.k == y.k && x.i < y.i) }

// smallSortMax is the batch size at or below which plain insertion sort
// beats the radix passes' fixed bucket costs.
const smallSortMax = 24

// sortOrder fills sc.order with 0..n-1 sorted by keys[i]. Comparison
// sorts misbehave here: on real (skewed, unpredictable) batches every
// compare is a data-dependent branch, and the mispredict tax came to
// ~50ns per element — a third of the whole batch budget. Instead the
// batch is radix-sorted on the three most significant bytes that
// actually vary across the batch (stable LSD passes, branchless inner
// loops), then an insertion pass with full (key, index) comparisons
// repairs the rare low-byte ties. With 64-bit keys spread over the key
// space, three discriminating bytes separate almost every distinct key,
// so the cleanup pass runs in near-linear time on predictable branches.
func (sc *batchScratch) sortOrder(keys []uint64) []int {
	pairs := sc.pairs[:0]
	var all, any uint64 // AND / OR over the batch: any^all = varying bits
	all = ^uint64(0)
	for i, k := range keys {
		pairs = append(pairs, kvOrd{k: k, i: int32(i)})
		all &= k
		any |= k
	}
	if len(pairs) <= smallSortMax {
		// Tiny batches: the per-pass bucket overhead of the radix sort
		// exceeds the whole insertion sort.
		insertionPairs(pairs)
		order := sc.order[:0]
		for _, p := range pairs {
			order = append(order, int(p.i))
		}
		sc.pairs, sc.order = pairs, order
		return order
	}
	if cap(sc.tmp) < len(pairs) {
		sc.tmp = make([]kvOrd, len(pairs))
	}
	sorted, spare := radixSortPairs(pairs, sc.tmp[:len(pairs)], any^all)
	order := sc.order[:0]
	for _, p := range sorted {
		order = append(order, int(p.i))
	}
	// An odd number of passes leaves the result in the spare buffer, so
	// keep both slices distinct for the next batch.
	sc.pairs, sc.tmp, sc.order = sorted, spare, order
	return order
}

// radixSortPairs sorts pairs by (k, i) using up to three stable LSD
// byte passes over the most significant varying bytes, followed by an
// insertion cleanup. Returns (sorted, spare): pass parity decides which
// of a and tmp holds the result.
func radixSortPairs(a, tmp []kvOrd, varying uint64) ([]kvOrd, []kvOrd) {
	// Pick the discriminating byte positions, most significant first.
	var shifts [3]uint
	ns := 0
	for b := 7; b >= 0 && ns < 3; b-- {
		if (varying>>(8*uint(b)))&0xff != 0 {
			shifts[ns] = 8 * uint(b)
			ns++
		}
	}
	src, dst := a, tmp
	for s := ns - 1; s >= 0; s-- { // LSD: least significant chosen byte first
		shift := shifts[s]
		var cnt [256]int32
		for _, p := range src {
			cnt[(p.k>>shift)&0xff]++
		}
		var sum int32
		for d := range cnt {
			c := cnt[d]
			cnt[d] = sum
			sum += c
		}
		for _, p := range src {
			d := (p.k >> shift) & 0xff
			dst[cnt[d]] = p
			cnt[d]++
		}
		src, dst = dst, src
	}
	insertionPairs(src)
	return src, dst
}

// insertionPairs finishes the radix passes: the input is sorted on the
// chosen bytes, so shifts are rare and the outer-loop branch predicts.
func insertionPairs(a []kvOrd) {
	for i := 1; i < len(a); i++ {
		x := a[i]
		j := i - 1
		for j >= 0 && pairLess(x, a[j]) {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = x
	}
}

// LookupBatch looks up len(keys) keys and stores the results positionally
// in vals and found (both must have at least len(keys) elements). It is
// equivalent to calling Lookup per key but traverses the tree with an
// interleaved ring of walks over the key-sorted batch.
func (t *Tree) LookupBatch(keys, vals []uint64, found []bool) {
	t.lookupBatchTracked(keys, vals, found, nil)
}

// lookupBatchTracked is LookupBatch plus a per-key leaf callback for
// access tracking (invoked with the original key index).
func (t *Tree) lookupBatchTracked(keys, vals []uint64, found []bool, track func(i int, l *Leaf)) {
	n := len(keys)
	if len(vals) < n || len(found) < n {
		panic("btree: LookupBatch result slices shorter than keys")
	}
	if n == 0 {
		return
	}
	if n < batchMin {
		for i, k := range keys {
			v, leaf, ok := t.lookupLeaf(k, nil)
			vals[i], found[i] = v, ok
			if track != nil {
				track(i, leaf)
			}
		}
		return
	}
	sc := batchPool.Get().(*batchScratch)
	order := sc.sortOrder(keys)

	// Serve the sorted head sequentially first. Under a skewed
	// distribution the head of a sorted batch is a dense cluster of hot
	// keys collapsing onto one or a few adjacent leaves: one descent plus
	// B-link hops serves the whole cluster, whereas priming the ring there
	// would issue up to batchRing redundant descents to the same leaf.
	leaf, _ := t.descend(keys[order[0]], nil, nil)
	leaf, lb := moveRightLeaf(leaf, keys[order[0]], nil)
	cursor := serveRuns(leaf, lb, keys, vals, found, order, 0, 1, track)
	if cursor >= n {
		batchPool.Put(sc)
		return
	}

	// Prime the ring for the scattered tail: each slot claims one key off
	// the shared cursor and starts at the root.
	var ring [batchRing]struct {
		j    int // claimed position in order
		node *Inner
	}
	width := batchRing
	if n-cursor < width {
		width = n - cursor
	}
	root := t.root.Load()
	for s := 0; s < width; s++ {
		ring[s].j = cursor
		ring[s].node = root
		cursor++
	}
	live := width
	for live > 0 {
		for s := 0; s < width; s++ {
			st := &ring[s]
			if st.node == nil {
				continue
			}
			k := keys[order[st.j]]
			b := st.node.box.Load()
			if !b.covers(k) && b.next != nil {
				st.node = b.next // B-link hop counts as one step
				continue
			}
			c := b.children[b.childIdx(k)]
			if !b.leafLevel() {
				st.node = c.inner
				continue
			}
			// Landed. Serve the claimed key, then drain the run of sorted
			// keys this leaf covers off the shared cursor. Every key left
			// of the cursor is claimed by exactly one slot, so nothing is
			// processed twice.
			leaf, lb := moveRightLeaf(c.leaf, k, nil)
			cursor = serveRuns(leaf, lb, keys, vals, found, order, st.j, cursor, track)
			if cursor < n {
				st.j = cursor
				st.node = t.root.Load()
				cursor++
			} else {
				st.node = nil
				live--
			}
		}
	}
	batchPool.Put(sc)
}

// serveRuns serves the claimed run at order[head] from (leaf, lb), then
// chain-serves following runs for as long as they land within chainHops
// B-link hops: the next sorted key is beyond the served leaf's high key,
// so walking right is valid routing, and in the skewed hot region the
// next run's leaf is typically one or two hops away — far cheaper than
// another root-to-leaf descent.
func serveRuns(leaf *Leaf, lb *leafBox, keys, vals []uint64, found []bool,
	order []int, head, cursor int, track func(int, *Leaf)) int {
	cursor = serveLeafRun(leaf, lb, keys, vals, found, order, head, cursor, track)
	for cursor < len(order) {
		nl, nb, ok := chainRight(lb, keys[order[cursor]])
		if !ok {
			break
		}
		h := cursor
		cursor++
		cursor = serveLeafRun(nl, nb, keys, vals, found, order, h, cursor, track)
		lb = nb
	}
	return cursor
}

// chainHops bounds the B-link walk from the previous run's leaf: hot
// runs of a sorted batch land within a couple of leaves of each other,
// while keys in the sparse tail are cheaper to reach by a fresh descent.
const chainHops = 4

// chainRight walks the leaf chain right looking for the leaf covering k.
// Precondition: k is at or beyond lb's high key (the previous run ended
// because lb no longer covered it), so lb.next's range starts <= k.
func chainRight(lb *leafBox, k uint64) (*Leaf, *leafBox, bool) {
	for h := 0; h < chainHops; h++ {
		nl := lb.next
		if nl == nil {
			return nil, nil, false
		}
		nb := nl.box.Load()
		if nb.covers(k) {
			return nl, nb, true
		}
		lb = nb
	}
	return nil, nil, false
}

// serveLeafRun answers the claimed key at order[head] from the leaf image
// lb, then consumes subsequent sorted keys the leaf covers. Correctness of
// the extension: the head key was routed here by the tree, so the leaf's
// (unstored) lower bound is <= keys[order[head]]; every consumed key is >=
// the head key (sorted) and < the image's high key (covers), hence inside
// the leaf's range. Duplicate keys are adjacent after sorting and reuse the
// previous probe's result; distinct keys probe with an ascending seed
// (searchFrom), so the whole run scans the payload at most once instead of
// restarting every probe at the leaf head.
func serveLeafRun(leaf *Leaf, lb *leafBox, keys, vals []uint64, found []bool,
	order []int, head, cursor int, track func(int, *Leaf)) int {
	if g, ok := lb.p.(*gapped); ok {
		// The expanded (hot) encoding serves most of a skewed batch; a
		// specialized loop avoids the per-key interface dispatch.
		return serveGappedRun(leaf, g, lb, keys, vals, found, order, head, cursor, track)
	}
	p := lb.p
	i := order[head]
	lastK := keys[i]
	pos, lastOK := p.search(lastK)
	var lastV uint64
	if lastOK {
		lastV = p.valAt(pos)
	}
	vals[i], found[i] = lastV, lastOK
	if track != nil {
		track(i, leaf)
	}
	// Seed for the next distinct key k > lastK: everything at or before a
	// found match is < k; on a miss only the prefix below pos is.
	from := pos
	if lastOK {
		from++
	}
	for cursor < len(order) {
		i = order[cursor]
		k := keys[i]
		if k != lastK {
			if !lb.covers(k) {
				break
			}
			pos, lastOK = p.searchFrom(k, from)
			lastV = 0
			if lastOK {
				lastV = p.valAt(pos)
			}
			lastK = k
			from = pos
			if lastOK {
				from++
			}
		}
		vals[i], found[i] = lastV, lastOK
		if track != nil {
			track(i, leaf)
		}
		cursor++
	}
	return cursor
}

// servePeek is the linear window a seeded probe scans before falling back
// to interpolation search: run keys in a hot leaf are typically a few
// slots apart, so most probes resolve inside one cache line.
const servePeek = 8

// serveGappedRun is serveLeafRun specialized for the Gapped encoding:
// direct slice access instead of interface calls, and seeded probes peek
// linearly from the previous position before searching.
func serveGappedRun(leaf *Leaf, g *gapped, lb *leafBox, keys, vals []uint64, found []bool,
	order []int, head, cursor int, track func(int, *Leaf)) int {
	a := g.keys
	i := order[head]
	lastK := keys[i]
	pos, lastOK := searchInterp(a, lastK)
	var lastV uint64
	if lastOK {
		lastV = g.valAt(pos)
	}
	vals[i], found[i] = lastV, lastOK
	if track != nil {
		track(i, leaf)
	}
	from := pos
	if lastOK {
		from++
	}
	for cursor < len(order) {
		i = order[cursor]
		k := keys[i]
		if k != lastK {
			if !lb.covers(k) {
				break
			}
			// Everything below from is < k; peek a few slots, then fall
			// back to interpolation over the remaining suffix.
			j := from
			lim := from + servePeek
			if lim > len(a) {
				lim = len(a)
			}
			for j < lim && a[j] < k {
				j++
			}
			if j < lim || j == len(a) {
				pos = j
			} else {
				p2, _ := searchInterp(a[j:], k)
				pos = j + p2
			}
			lastOK = pos < len(a) && a[pos] == k
			lastV = 0
			if lastOK {
				lastV = g.valAt(pos)
			}
			lastK = k
			from = pos
			if lastOK {
				from++
			}
		}
		vals[i], found[i] = lastV, lastOK
		if track != nil {
			track(i, leaf)
		}
		cursor++
	}
	return cursor
}

// InsertBatch inserts len(keys) key/value pairs; inserted[i] reports
// whether keys[i] was newly inserted (false: overwrote an existing value).
// Equivalent to per-key Insert calls in batch-sorted order (duplicate keys
// keep submission order, so the last value wins), but consecutive sorted
// keys landing in the same leaf are written under one lock: overwrites of
// a Gapped or Packed leaf in place, anything else merged into a single
// new leaf image.
//
// The contents match per-key Insert; the encoding may not. In a batch of
// batchMin or more keys, a run of two or more on a Succinct leaf with
// room is merged, and with ExpandOnInsert the merged image is Gapped even
// when every key in the run already existed, where per-key overwrites
// keep the leaf Succinct (TestInsertBatchOverwriteRunExpands).
func (t *Tree) InsertBatch(keys, vals []uint64, inserted []bool) {
	t.insertBatchTracked(keys, vals, inserted, nil)
}

// insertBatchTracked is InsertBatch plus a per-key callback reporting the
// receiving leaf and whether the write eagerly expanded it.
func (t *Tree) insertBatchTracked(keys, vals []uint64, inserted []bool, track func(i int, l *Leaf, expanded bool)) {
	n := len(keys)
	if len(vals) < n || len(inserted) < n {
		panic("btree: InsertBatch slices shorter than keys")
	}
	if n == 0 {
		return
	}
	if n < batchMin {
		for i, k := range keys {
			ins, leaf, exp := t.insertTracked(k, vals[i], nil)
			inserted[i] = ins
			if track != nil {
				track(i, leaf, exp)
			}
		}
		return
	}
	sc := batchPool.Get().(*batchScratch)
	order := sc.sortOrder(keys)
	cursor := 0
	for cursor < n {
		cursor = t.insertRun(keys, vals, inserted, order, cursor, track)
	}
	batchPool.Put(sc)
}

// insertRun inserts the run of sorted keys starting at order[cursor] that
// shares one leaf: one descent and one lock acquisition for the whole run.
// A Gapped or Packed leaf that holds the head key takes the run's leading
// overwrites in place (overwriteRun). Otherwise a run of one key — the
// usual case for a batch of random keys — and any write to a full leaf
// (overwrite or split) are the single-key write, putLocked; a longer run
// is merged in scratch and encoded once. The merge expands a non-Gapped
// leaf under ExpandOnInsert whether or not any key in the run is new, so
// a batch of overwrites can expand a Succinct leaf that the same writes
// one by one would leave Succinct. Returns the cursor past the consumed
// run.
func (t *Tree) insertRun(keys, vals []uint64, inserted []bool,
	order []int, cursor int, track func(int, *Leaf, bool)) int {
	head := order[cursor]
	k := keys[head]
	var path descentPath
	leaf, b := t.lockLeaf(k, &path, nil)
	p := b.p

	if f := flatOf(p); f != nil {
		if pos, found := p.search(k); found {
			return t.overwriteRun(leaf, b, f, pos, keys, vals, inserted, order, cursor, track)
		}
	}
	if next := cursor + 1; p.count() >= LeafCap || next == len(order) || !b.covers(keys[order[next]]) {
		ins, exp := t.putLocked(leaf, b, &path, k, vals[head])
		inserted[head] = ins
		if track != nil {
			track(head, leaf, exp)
		}
		return next
	}

	target := p.encoding()
	expanded := false
	if t.cfg.ExpandOnInsert && target != EncGapped {
		target = EncGapped
		expanded = true
		t.expansions.Add(1)
	}
	scratch := kvPool.Get().(*kvScratch)
	gk, gv := scratch.keys[:p.count()], scratch.vals[:p.count()]
	decodeLocked(p, 0, len(gk), gk, gv)
	newKeys := 0
	j := cursor
	for j < len(order) {
		idx := order[j]
		kj := keys[idx]
		// The head is covered by construction (lockLeaf moved right);
		// later keys are >= the head and must stay under the high key.
		if j > cursor && !b.covers(kj) {
			break
		}
		pos, found := searchBinaryScalar(gk, kj)
		if found {
			gv[pos] = vals[idx]
		} else if len(gk) >= LeafCap {
			// No room for new keys; only overwrites may continue the run.
			break
		} else {
			gk, gv = gk[:len(gk)+1], gv[:len(gv)+1]
			copy(gk[pos+1:], gk[pos:])
			copy(gv[pos+1:], gv[pos:])
			gk[pos], gv[pos] = kj, vals[idx]
			newKeys++
		}
		inserted[idx] = !found
		j++
	}
	np := encodePayload(target, gk, gv)
	kvPool.Put(scratch)
	// Overwrites (inserted[idx] == false) bracket the swap in the cache
	// and drop their ways at once: a bracket of many keys must not hold
	// buckets. Fresh keys have nothing cached.
	if t.rcache != nil {
		for jj := cursor; jj < j; jj++ {
			if idx := order[jj]; !inserted[idx] {
				t.rcache.Drop(t.rcache.BeginWrite(keys[idx]))
			}
		}
	}
	t.swapLeafBox(leaf, b, b.with(np))
	leaf.lock.unlock()
	if t.rcache != nil {
		for jj := cursor; jj < j; jj++ {
			if idx := order[jj]; !inserted[idx] {
				t.rcache.EndWrite(keys[idx])
			}
		}
	}
	if track != nil {
		// Tracked AFTER the lock is released: a tracked insert can complete a
		// sampling phase, whose synchronous adaptation may migrate this very
		// leaf — taking its write lock. Only the run head reports the
		// expansion: under per-key inserts the first write expands the leaf
		// and later keys see it already Gapped.
		for jj := cursor; jj < j; jj++ {
			track(order[jj], leaf, expanded && jj == cursor)
		}
	}
	if newKeys > 0 {
		t.keyCount.Add(int64(newKeys))
	}
	return j
}

// overwriteRun stores the run of sorted keys starting at order[cursor]
// into the Gapped or Packed image b of the write-locked leaf in place, as
// long as the keys exist in it, and unlocks the leaf; the head key is at
// position pos. The first key the image lacks, or does not cover, ends
// the run; the next insertRun takes it from there. Each store is
// bracketed in the cache like a single overwrite, holding one way at a
// time. Returns the cursor past the stored keys.
func (t *Tree) overwriteRun(leaf *Leaf, b *leafBox, f *flat, pos int, keys, vals []uint64,
	inserted []bool, order []int, cursor int, track func(int, *Leaf, bool)) int {
	lastK := keys[order[cursor]]
	j := cursor
	for {
		idx := order[j]
		held := t.cacheBegin(lastK)
		f.storeValue(pos, vals[idx])
		t.rcache.Update(held, vals[idx])
		t.cacheEnd(lastK)
		inserted[idx] = false
		if j++; j == len(order) {
			break
		}
		// Duplicates are adjacent and reuse pos; a larger key probes from
		// the slot after the last one stored.
		if k := keys[order[j]]; k != lastK {
			if !b.covers(k) {
				break
			}
			next, found := b.p.searchFrom(k, pos+1)
			if !found {
				break
			}
			pos, lastK = next, k
		}
	}
	leaf.lock.unlock()
	if track != nil {
		for jj := cursor; jj < j; jj++ {
			track(order[jj], leaf, false)
		}
	}
	return j
}

// LookupBatch is the tracked batch lookup: the batch runs through the
// interleaved kernel, and the (rare) sampled keys track their leaf with
// the Read access type, exactly as per-key Lookup would.
//
// With a cache attached, non-sampled keys probe it first and only the
// misses descend into the tree (through the same interleaved kernel over
// a compacted key slice); found misses are admitted afterwards under the
// stripe snapshot taken before the descent. Sampled keys bypass the
// probe entirely — they must reach the tree so the hotness signal the
// adaptation manager sees is identical with and without the cache — and
// double as high-confidence (pre-warmed) admissions.
//
// The whole path is allocation-free: scratch lives on the session (one
// goroutine) and the tracking callbacks are bound once at construction.
//
// Batch ops leave one coarse event per call in the flight recorder (kind,
// size, duration and the cross-op signals) rather than per-key stage
// detail: the batch kernels are interleaved across keys, so per-key
// attribution would mean per-key probes — exactly the overhead batching
// exists to amortize.
func (s *Session) LookupBatch(keys, vals []uint64, found []bool) {
	ev := s.beginOp(obs.OpLookupBatch, firstKey(keys))
	if s.c != nil {
		s.lookupBatchCached(keys, vals, found)
	} else {
		// Draw the sampling decisions up front so the skip counter advances
		// exactly as under per-key lookups. Samples are rare (skip >= 50), so
		// the offsets list is almost always empty and the draw is O(samples).
		s.drawSamples(len(keys))
		var track func(int, *Leaf)
		if len(s.sampleBuf) > 0 {
			track = s.trackReadFn
		}
		s.a.Tree.lookupBatchTracked(keys, vals, found, track)
		s.clearSamples()
	}
	if ev != nil {
		ev.Ops = int32(len(keys))
		s.finishOp()
	}
}

// firstKey is the key a batch's flight-recorder event is filed under.
func firstKey(keys []uint64) uint64 {
	if len(keys) == 0 {
		return 0
	}
	return keys[0]
}

// lookupBatchCached is the cache-on half of LookupBatch: load the
// buckets, probe, descend for the misses and the sampled keys, admit.
func (s *Session) lookupBatchCached(keys, vals []uint64, found []bool) {
	n := len(keys)
	if len(vals) < n || len(found) < n {
		panic("btree: LookupBatch result slices shorter than keys")
	}
	cb := s.cb
	cb.grow(n)
	s.drawSamples(n)
	defer s.clearSamples()
	// Load every key's bucket before probing any, so the batch's bucket
	// misses overlap instead of queuing one probe at a time.
	cb.touched = s.c.Touch(keys)
	miss := 0
	// Probes are tallied here and reach the shared counters once per
	// batch: a per-key atomic add is a write to a line every caller reads.
	for i := 0; i < n; i++ {
		k := keys[i]
		// Stripe snapshots are taken BEFORE the tree read (inside
		// ProbeOrSnap, or directly for sampled keys): Admit re-validates
		// them, so a write landing in between aborts the entry.
		var snap uint64
		if s.isSample(i) {
			// sampled: full walk, keeps the adaptation signal intact
			snap = s.c.Snap(k)
		} else if v, sn, ok := s.c.ProbeOrSnapUncounted(k); ok {
			vals[i], found[i] = v, true
			continue
		} else {
			snap = sn
		}
		cb.keys[miss], cb.pos[miss], cb.snaps[miss] = k, int32(i), snap
		miss++
	}
	s.c.AddProbes(int64(n-miss), int64(miss-len(s.sampleBuf)))
	if miss == 0 {
		return
	}
	mk, mv, mf := cb.keys[:miss], cb.vals[:miss], cb.found[:miss]
	if len(s.sampleBuf) == 0 {
		s.a.Tree.lookupBatchTracked(mk, mv, mf, nil)
	} else {
		s.a.Tree.lookupBatchTracked(mk, mv, mf, s.trackMissFn)
	}
	// Scatter results back and admit the hits.
	for j := 0; j < miss; j++ {
		i := int(cb.pos[j])
		vals[i], found[i] = mv[j], mf[j]
		if mf[j] {
			hot := s.isSample(i)
			s.c.Admit(keys[i], mv[j], cb.snaps[j], hot, hot || s.admitGate())
		}
	}
}

// trackRead is the cache-off sampled-batch callback (bound once).
func (s *Session) trackRead(i int, l *Leaf) {
	if s.isSample(i) {
		s.sampler.Track(l, core.Read, s.ctx)
	}
}

// trackMiss maps a miss-slice index back to its original batch offset
// and tracks it when sampled (bound once as trackMissFn).
func (s *Session) trackMiss(j int, l *Leaf) {
	if s.isSample(int(s.cb.pos[j])) {
		s.sampler.Track(l, core.Read, s.ctx)
	}
}

// drawSamples advances the sampler over an n-access batch and marks the
// sampled offsets in sampleBits, so the tracking callbacks test a key in
// O(1) instead of scanning sampleBuf. Samples are rare (skip >= 50), so
// marking and clearing are O(samples); the bitset grows to the largest
// batch seen and is reused.
func (s *Session) drawSamples(n int) {
	s.sampleBuf = s.sampler.SampleOffsets(n, s.sampleBuf[:0])
	if len(s.sampleBuf) == 0 {
		return
	}
	if w := (n + 63) >> 6; w > len(s.sampleBits) {
		s.sampleBits = make([]uint64, w)
	}
	for _, i := range s.sampleBuf {
		s.sampleBits[i>>6] |= 1 << (i & 63)
	}
}

// isSample reports whether batch offset i was drawn as a sample.
func (s *Session) isSample(i int) bool {
	w := i >> 6
	return w < len(s.sampleBits) && s.sampleBits[w]&(1<<(i&63)) != 0
}

// clearSamples unmarks the batch's samples once the batch is done.
func (s *Session) clearSamples() {
	for _, i := range s.sampleBuf {
		s.sampleBits[i>>6] = 0
	}
}

// InsertBatch is the tracked batch insert. Writes that eagerly expanded
// their leaf are always tracked — sampled or not — preserving the deferred
// compaction protocol of §5.2 (an expanded leaf the manager never hears
// about could not be compacted again). Cache coherence needs no work
// here: the tree's write paths invalidate overwritten keys before the
// batch returns.
func (s *Session) InsertBatch(keys, vals []uint64, inserted []bool) {
	ev := s.beginOp(obs.OpInsertBatch, firstKey(keys))
	d := s.a.dur
	var lsn uint64
	if d != nil {
		s.walBuf = wal.EncodeBatch(s.walBuf[:0], keys, vals)
		lsn = d.begin(wal.RecBatch, s.walBuf)
	}
	s.drawSamples(len(keys))
	s.a.Tree.insertBatchTracked(keys, vals, inserted, s.trackInsFn)
	s.clearSamples()
	if d != nil {
		d.commit(lsn, int64(len(keys)), ev)
	}
	if ev != nil {
		ev.Ops = int32(len(keys))
		s.finishOp()
	}
}

// trackInsert is the insert-batch callback (bound once).
func (s *Session) trackInsert(i int, l *Leaf, expanded bool) {
	if expanded || s.isSample(i) {
		s.sampler.Track(l, core.Insert, s.ctx)
	}
}

// cacheBatch is the session-owned scratch of the cached batch path: the
// compacted miss batch (keys/pos/snaps in batch order) and its results,
// and the sum of the bucket-load pass (cache.Touch). Sessions are
// single-goroutine, so no pooling or locking is needed and the buffers
// amortize to zero allocations per batch.
type cacheBatch struct {
	keys    []uint64
	vals    []uint64
	found   []bool
	pos     []int32
	snaps   []uint64
	touched uint64
}

func (cb *cacheBatch) grow(n int) {
	if cap(cb.keys) >= n {
		return
	}
	cb.keys = make([]uint64, n)
	cb.vals = make([]uint64, n)
	cb.found = make([]bool, n)
	cb.pos = make([]int32, n)
	cb.snaps = make([]uint64, n)
}
