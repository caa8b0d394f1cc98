package btree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"ahi/internal/cache"
	"ahi/internal/core"
	"ahi/internal/obs"
)

// Concurrency note. The paper synchronizes the Hybrid B+-tree with
// Optimistic Lock Coupling, whose readers tolerate benign torn reads and
// re-validate versions afterwards. Go's memory model gives no such
// allowance — a torn slice-header read can fault — so this implementation
// keeps OLC's essential property (readers take no locks and write nothing)
// via the Lehman–Yao B-link scheme with copy-on-write node images: every
// node holds an atomic pointer to a box (keys, children, high key,
// right-sibling link); readers load boxes and "move right" when a
// concurrent split shifted their key, writers serialize per node through
// the version lock in olc.go. A box's structure and keys never change;
// the one in-place write is a Gapped or Packed overwrite, a single atomic
// store into the value array of the current image, which readers load
// atomically. MigrateLeaf therefore validates its snapshot by the leaf's
// lock version, which every write bumps, not by box identity. See
// DESIGN.md §4 for the substitution entry.

// innerCap is the maximum number of children per inner node.
const innerCap = 64

// Leaf is one leaf node: a stable identity (the tracked unit of the
// adaptation framework) whose payload image is swapped atomically.
type Leaf struct {
	lock olcLock
	id   uint64
	box  atomic.Pointer[leafBox]
}

// ID returns the leaf's stable numeric identity, unique in its group.
func (l *Leaf) ID() uint64 { return l.id }

// Encoding returns the leaf's current encoding.
func (l *Leaf) Encoding() core.Encoding { return l.box.Load().p.encoding() }

// leafBox is one leaf image: its structure is immutable, its Gapped or
// Packed values are overwritten in place (flat.storeValue).
type leafBox struct {
	p       payload
	next    *Leaf
	highKey uint64 // exclusive upper bound of this leaf, valid if hasHigh
	hasHigh bool
}

func (b *leafBox) covers(k uint64) bool { return !b.hasHigh || k < b.highKey }

// with returns an image holding p over the same key range and sibling.
func (b *leafBox) with(p payload) *leafBox {
	return &leafBox{p: p, next: b.next, highKey: b.highKey, hasHigh: b.hasHigh}
}

// Inner is one inner node.
type Inner struct {
	lock olcLock
	box  atomic.Pointer[innerBox]
}

// innerBox is one immutable inner-node image. children[i] covers keys in
// [keys[i-1], keys[i]); len(children) == len(keys)+1.
type innerBox struct {
	keys     []uint64
	children []childRef
	next     *Inner
	highKey  uint64
	hasHigh  bool
	// depth is the node's height above the leaves: 1 means the children
	// are leaves. Separator inserts target the level right above the
	// split node by depth, which stays correct however the root moves.
	depth uint8
}

func (b *innerBox) leafLevel() bool { return b.depth == 1 }

func (b *innerBox) covers(k uint64) bool { return !b.hasHigh || k < b.highKey }

// childIdx returns the index of the child covering k.
func (b *innerBox) childIdx(k uint64) int {
	lo, hi := 0, len(b.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childRef points to either an inner node or a leaf.
type childRef struct {
	inner *Inner
	leaf  *Leaf
}

// Config configures a Tree.
type Config struct {
	// DefaultEncoding is applied to bulk-loaded and freshly split leaves
	// (EncGapped for the classic tree, EncSuccinct/EncPacked for the
	// compact baselines).
	DefaultEncoding core.Encoding
	// Occupancy is the bulk-load fill factor of leaves (default 0.70, the
	// paper's assumed average).
	Occupancy float64
	// ExpandOnInsert eagerly migrates non-Gapped leaves to Gapped when a
	// write hits them (the adaptive tree's policy, §5.2); without it, the
	// new image keeps the leaf's encoding.
	ExpandOnInsert bool
}

// Tree is the Hybrid B+-tree. The zero value is not usable; construct via
// New or BulkLoad. All methods are safe for concurrent use.
type Tree struct {
	cfg    Config
	root   atomic.Pointer[Inner]
	rootMu sync.Mutex // serializes root growth
	nextID atomic.Uint64

	// Accounting (bytes include payloads + per-node headers).
	countByEnc [3]atomic.Int64
	bytesByEnc [3]atomic.Int64
	innerBytes atomic.Int64
	innerCount atomic.Int64
	keyCount   atomic.Int64

	expansions  atomic.Int64
	compactions atomic.Int64

	// rcache is the hot-key result cache of the tree's group (nil =
	// disabled); the trees of a group hold disjoint keys, so they share it.
	// Write paths keep it strictly coherent: every mutation of k brackets
	// its leaf write (an image swap or an in-place value store) with k's
	// invalidation stripe (cacheBegin/cacheEnd), a single-key overwrite
	// storing its value into k's held way once the tree shows it,
	// and a leaf migration bumps the stripes of the displaced image's
	// keys so admissions that read that image abort. Read integration
	// (probe/admit) lives in the adaptive Session so it can reuse the
	// hotness sampler as admission signal.
	rcache *cache.Cache

	// migActive counts leaf migrations currently re-encoding. The flight
	// recorder reads it at op end to tag ops that overlapped a migration
	// (the dominant tail cause the paper's premise predicts).
	migActive atomic.Int32
}

// New creates an empty tree.
func New(cfg Config) *Tree {
	if cfg.Occupancy <= 0 || cfg.Occupancy > 1 {
		cfg.Occupancy = 0.70
	}
	t := &Tree{cfg: cfg}
	leaf := t.newLeaf(encodePayload(cfg.DefaultEncoding, nil, nil), nil, 0, false)
	root := &Inner{}
	rb := &innerBox{children: []childRef{{leaf: leaf}}, depth: 1}
	root.box.Store(rb)
	t.root.Store(root)
	t.innerCount.Add(1)
	t.innerBytes.Add(int64(innerBoxBytes(rb)))
	return t
}

// liftIDs adds base to the ID of every leaf, present and future. NewGroup
// gives each tree of a group its own ID range, so the manager the trees
// share never sees two leaves of one ID, and one hash. The tree must not
// be in use yet.
func (t *Tree) liftIDs(base uint64) {
	t.nextID.Add(base)
	t.WalkLeaves(func(l *Leaf) bool {
		l.id += base
		return true
	})
}

func (t *Tree) newLeaf(p payload, next *Leaf, highKey uint64, hasHigh bool) *Leaf {
	l := &Leaf{id: t.nextID.Add(1)}
	l.box.Store(&leafBox{p: p, next: next, highKey: highKey, hasHigh: hasHigh})
	e := p.encoding()
	t.countByEnc[e].Add(1)
	t.bytesByEnc[e].Add(int64(p.bytes() + leafHeaderBytes))
	return l
}

// swapLeafBox replaces a leaf's image under its lock, fixing accounting.
func (t *Tree) swapLeafBox(l *Leaf, old, new_ *leafBox) {
	oe, ne := old.p.encoding(), new_.p.encoding()
	ob, nb := int64(old.p.bytes()), int64(new_.p.bytes())
	if oe != ne {
		t.countByEnc[oe].Add(-1)
		t.bytesByEnc[oe].Add(-ob - leafHeaderBytes)
		t.countByEnc[ne].Add(1)
		t.bytesByEnc[ne].Add(nb + leafHeaderBytes)
	} else if nb != ob {
		// Same-size rewrites (every Gapped write, most overwrites) skip
		// the shared counters altogether.
		t.bytesByEnc[oe].Add(nb - ob)
	}
	l.box.Store(new_)
}

func innerBoxBytes(b *innerBox) int {
	return len(b.keys)*8 + len(b.children)*16 + 48
}

// BulkLoad builds a tree from sorted, unique keys with parallel values,
// filling leaves to cfg.Occupancy with cfg.DefaultEncoding.
func BulkLoad(cfg Config, keys, vals []uint64) *Tree {
	if len(keys) != len(vals) {
		panic("btree: keys and vals length mismatch")
	}
	if cfg.Occupancy <= 0 || cfg.Occupancy > 1 {
		cfg.Occupancy = 0.70
	}
	t := &Tree{cfg: cfg}
	per := int(float64(LeafCap) * cfg.Occupancy)
	if per < 1 {
		per = 1
	}
	if len(keys) == 0 {
		return New(cfg)
	}
	// Build the leaf level.
	var leaves []*Leaf
	var seps []uint64 // seps[i] = first key of leaf i (i >= 1)
	for i := 0; i < len(keys); i += per {
		end := i + per
		if end > len(keys) {
			end = len(keys)
		}
		p := encodePayload(cfg.DefaultEncoding, keys[i:end], vals[i:end])
		leaves = append(leaves, t.newLeaf(p, nil, 0, false))
		if i > 0 {
			seps = append(seps, keys[i])
		}
	}
	t.keyCount.Store(int64(len(keys)))
	t.assemble(leaves, seps)
	return t
}

// assemble links a sorted run of freshly built leaves and constructs the
// inner levels bottom-up, installing the root. seps[i-1] is the first
// key of leaves[i]. Shared by BulkLoad and checkpoint restore (which
// needs the same construction but with per-leaf encodings).
func (t *Tree) assemble(leaves []*Leaf, seps []uint64) {
	for i := 0; i < len(leaves)-1; i++ {
		b := leaves[i].box.Load()
		b.next = leaves[i+1]
		b.highKey = seps[i]
		b.hasHigh = true
	}
	// Build inner levels bottom-up.
	level := make([]childRef, len(leaves))
	for i, l := range leaves {
		level[i] = childRef{leaf: l}
	}
	levelSeps := seps
	depth := uint8(1)
	for {
		var nextLevel []childRef
		var nextSeps []uint64
		var prevInner *Inner
		for i := 0; i < len(level); i += innerCap {
			end := i + innerCap
			if end > len(level) {
				end = len(level)
			}
			box := &innerBox{
				children: append([]childRef(nil), level[i:end]...),
				depth:    depth,
			}
			// Separators between children i..end-1 are levelSeps[i..end-2].
			if end-1 > i {
				box.keys = append([]uint64(nil), levelSeps[i:end-1]...)
			}
			in := &Inner{}
			in.box.Store(box)
			t.innerCount.Add(1)
			t.innerBytes.Add(int64(innerBoxBytes(box)))
			if prevInner != nil {
				pb := prevInner.box.Load()
				pb.next = in
				pb.highKey = levelSeps[i-1]
				pb.hasHigh = true
			}
			prevInner = in
			nextLevel = append(nextLevel, childRef{inner: in})
			if i > 0 {
				nextSeps = append(nextSeps, levelSeps[i-1])
			}
		}
		level, levelSeps = nextLevel, nextSeps
		depth++
		if len(level) == 1 {
			break
		}
	}
	t.root.Store(level[0].inner)
}

// descentPath records, by height, the inner node a descent went through
// at each level: path[d-1] is the node of depth d (1: its children are
// leaves). A fixed array keeps it on the writer's stack; eight levels are
// beyond reach, since inner nodes split at 64 children and never shrink,
// so depth 9 needs 32^8 leaves. Levels a concurrent root growth added stay
// nil; insertSeparator then finds the node by a fresh descent.
type descentPath [8]*Inner

// descend walks from the root to the leaf responsible for k, recording
// the visited inner nodes in path when path != nil, and returns the leaf
// plus the inner node it was reached from. It is the one single-key walk
// from the root: every point and range operation starts here. The levels
// and right-link chases it counted go to ev when the caller traces the
// operation (added, so a write's re-descents accumulate); a nil ev costs
// the one branch at the leaf level.
func (t *Tree) descend(k uint64, path *descentPath, ev *obs.OpEvent) (*Leaf, *Inner) {
	node := t.root.Load()
	var depth, hops int32
	for {
		b := node.box.Load()
		if !b.covers(k) && b.next != nil {
			node = b.next
			hops++
			continue
		}
		depth++
		if path != nil {
			path[b.depth-1] = node
		}
		c := b.children[b.childIdx(k)]
		if b.leafLevel() {
			if ev != nil {
				ev.Depth += depth
				ev.RightHops += hops
			}
			return c.leaf, node
		}
		node = c.inner
	}
}

// moveRightLeaf hops leaf images until the one covering k is found,
// adding the hops to ev like descend.
func moveRightLeaf(l *Leaf, k uint64, ev *obs.OpEvent) (*Leaf, *leafBox) {
	for hops := int32(0); ; hops++ {
		b := l.box.Load()
		if b.covers(k) || b.next == nil {
			if ev != nil {
				ev.RightHops += hops
			}
			return l, b
		}
		l = b.next
	}
}

// Lookup returns the value stored under k.
func (t *Tree) Lookup(k uint64) (uint64, bool) {
	v, _, ok := t.lookupLeaf(k, nil)
	return v, ok
}

// lookupLeaf additionally returns the leaf that held (or would hold) k.
// A traced caller passes its event: the descent leaves its stage signals
// in it.
func (t *Tree) lookupLeaf(k uint64, ev *obs.OpEvent) (uint64, *Leaf, bool) {
	leaf, _ := t.descend(k, nil, ev)
	leaf, b := moveRightLeaf(leaf, k, ev)
	if i, found := b.p.search(k); found {
		return b.p.valAt(i), leaf, true
	}
	return 0, leaf, false
}

// Insert stores v under k, returning true when k was newly inserted
// (false: an existing value was overwritten).
func (t *Tree) Insert(k, v uint64) bool {
	inserted, _, _ := t.insertTracked(k, v, nil)
	return inserted
}

// insertTracked also returns the leaf that received the key and whether
// the write eagerly expanded the leaf's encoding (the adaptive session
// must then track the leaf even when the access is not sampled, or the
// expansion could never be compacted again). ev is the traced caller's
// event (see lockLeaf).
func (t *Tree) insertTracked(k, v uint64, ev *obs.OpEvent) (bool, *Leaf, bool) {
	var path descentPath
	leaf, b := t.lockLeaf(k, &path, ev)
	inserted, expanded := t.putLocked(leaf, b, &path, k, v)
	return inserted, leaf, expanded
}

// lockLeaf descends to the leaf covering k and returns it write-locked
// together with its current image, moving right while locked (a split may
// have shifted the range) and re-descending when a leaf on the way turned
// obsolete. Each such re-descent counts into ev.WriteRetries when the
// caller traces the write; a write's event carries no depth or right-hops.
func (t *Tree) lockLeaf(k uint64, path *descentPath, ev *obs.OpEvent) (*Leaf, *leafBox) {
	for {
		leaf, _ := t.descend(k, path, nil)
		for leaf.lock.writeLock() {
			b := leaf.box.Load()
			if b.covers(k) || b.next == nil {
				return leaf, b
			}
			leaf.lock.unlock()
			leaf = b.next
		}
		if ev != nil {
			ev.WriteRetries++
		}
	}
}

// putLocked stores v under k in leaf, which the caller holds write-locked
// with current image b and path from its descent, and unlocks it. An
// overwrite of a Gapped or Packed image stores the value in place; a
// Succinct overwrite and a new key derive the next image from b.p in one
// pass (payload.go), and b itself stays as it is for the readers that
// still hold it. It reports whether k was new and whether the write
// eagerly expanded the leaf.
func (t *Tree) putLocked(leaf *Leaf, b *leafBox, path *descentPath, k, v uint64) (inserted, expanded bool) {
	p := b.p
	pos, found := p.search(k)
	if found {
		// The cached way of k, if any, is held only across the publish:
		// a Succinct image is built before the bracket opens.
		if f := flatOf(p); f != nil {
			held := t.cacheBegin(k)
			f.storeValue(pos, v)
			t.rcache.Update(held, v)
		} else {
			nb := b.with(p.(*succinct).withValue(pos, v))
			held := t.cacheBegin(k)
			t.swapLeafBox(leaf, b, nb)
			t.rcache.Update(held, v)
		}
		leaf.lock.unlock()
		t.cacheEnd(k)
		return false, false
	}
	enc := p.encoding()
	if t.cfg.ExpandOnInsert && enc != EncGapped {
		enc, expanded = EncGapped, true
	}
	n := p.count()
	if n < LeafCap {
		if expanded {
			t.expansions.Add(1)
		}
		t.swapLeafBox(leaf, b, b.with(insertAt(p, enc, pos, k, v)))
		leaf.lock.unlock()
		t.keyCount.Add(1)
		return true, expanded
	}

	// Split: left keeps the lower half, a new right leaf the rest.
	sc := kvPool.Get().(*kvScratch)
	ks, vs := sc.keys[:n+1], sc.vals[:n+1]
	decodeInserting(p, pos, k, v, ks, vs)
	mid := len(ks) / 2
	sep := ks[mid]
	right := t.newLeaf(encodePayload(enc, ks[mid:], vs[mid:]), b.next, b.highKey, b.hasHigh)
	left := &leafBox{p: encodePayload(enc, ks[:mid], vs[:mid]), next: right, highKey: sep, hasHigh: true}
	kvPool.Put(sc)
	t.swapLeafBox(leaf, b, left)
	leaf.lock.unlock()
	t.keyCount.Add(1)
	// Publish the separator to the parent level.
	t.insertSeparator(path, sep, childRef{leaf: right}, 0)
	return true, expanded
}

// Delete removes k, returning whether it was present. Leaves are not
// merged on underflow — mirroring the long-running-system behaviour whose
// sub-70% occupancies motivate the paper's compact encodings.
func (t *Tree) Delete(k uint64) bool {
	ok, _ := t.deleteTracked(k, nil)
	return ok
}

// deleteTracked also returns the leaf that held (or would hold) k; ev is
// the traced caller's event (see lockLeaf).
func (t *Tree) deleteTracked(k uint64, ev *obs.OpEvent) (bool, *Leaf) {
	leaf, b := t.lockLeaf(k, nil, ev)
	i, found := b.p.search(k)
	if !found {
		leaf.lock.unlock()
		return false, leaf
	}
	t.cacheBeginDrop(k)
	t.swapLeafBox(leaf, b, b.with(removeAt(b.p, i)))
	leaf.lock.unlock()
	t.cacheEnd(k)
	t.keyCount.Add(-1)
	return true, leaf
}

// cacheBegin and cacheEnd bracket the leaf write of k (an image swap or
// an in-place value store), so the attached result cache admits nothing
// for k until the write is done (cache.BeginWrite). cacheBegin holds k's
// cached way, if any: a single-key overwrite hands it the new value with
// Update once the tree shows it. Nil-safe.
func (t *Tree) cacheBegin(k uint64) cache.Held {
	if t.rcache == nil {
		return cache.Held{}
	}
	return t.rcache.BeginWrite(k)
}

// cacheBeginDrop opens the bracket and drops k's cached way at once: the
// form for a delete, which holds no way across its write.
func (t *Tree) cacheBeginDrop(k uint64) {
	if t.rcache != nil {
		t.rcache.Drop(t.rcache.BeginWrite(k))
	}
}

func (t *Tree) cacheEnd(k uint64) {
	if t.rcache != nil {
		t.rcache.EndWrite(k)
	}
}

// insertSeparator inserts (sep, right) into the level childDepth+1, taking
// the node from the descent path; where the path has none it grows a new
// root or re-descends. childDepth is 0 for a split leaf, 1 for a split
// leaf-level inner node, and so on.
func (t *Tree) insertSeparator(path *descentPath, sep uint64, right childRef, childDepth uint8) {
	node := path[childDepth]
	if node == nil {
		t.growRoot(sep, right, childDepth)
		return
	}
	if !node.lock.writeLock() {
		// Node died (cannot happen today — inner nodes are never retired —
		// but a fresh descent stays correct if that ever changes).
		t.insertSeparatorFromRoot(sep, right, childDepth)
		return
	}
	// Move right while locked.
	for {
		b := node.box.Load()
		if b.covers(sep) || b.next == nil {
			break
		}
		next := b.next
		node.lock.unlock()
		node = next
		if !node.lock.writeLock() {
			t.insertSeparatorFromRoot(sep, right, childDepth)
			return
		}
	}
	b := node.box.Load()
	idx := b.childIdx(sep)
	nb := &innerBox{
		keys:     make([]uint64, 0, len(b.keys)+1),
		children: make([]childRef, 0, len(b.children)+1),
		next:     b.next,
		highKey:  b.highKey,
		hasHigh:  b.hasHigh,
		depth:    b.depth,
	}
	nb.keys = append(nb.keys, b.keys[:idx]...)
	nb.keys = append(nb.keys, sep)
	nb.keys = append(nb.keys, b.keys[idx:]...)
	nb.children = append(nb.children, b.children[:idx+1]...)
	nb.children = append(nb.children, right)
	nb.children = append(nb.children, b.children[idx+1:]...)

	if len(nb.children) <= innerCap {
		t.innerBytes.Add(int64(innerBoxBytes(nb) - innerBoxBytes(b)))
		node.box.Store(nb)
		node.lock.unlock()
		return
	}
	// Split this inner node too.
	mid := len(nb.keys) / 2
	upSep := nb.keys[mid]
	rightInner := &Inner{}
	rBox := &innerBox{
		keys:     append([]uint64(nil), nb.keys[mid+1:]...),
		children: append([]childRef(nil), nb.children[mid+1:]...),
		next:     nb.next,
		highKey:  nb.highKey,
		hasHigh:  nb.hasHigh,
		depth:    nb.depth,
	}
	rightInner.box.Store(rBox)
	lBox := &innerBox{
		keys:     append([]uint64(nil), nb.keys[:mid]...),
		children: append([]childRef(nil), nb.children[:mid+1]...),
		next:     rightInner,
		highKey:  upSep,
		hasHigh:  true,
		depth:    nb.depth,
	}
	t.innerCount.Add(1)
	t.innerBytes.Add(int64(innerBoxBytes(lBox) + innerBoxBytes(rBox) - innerBoxBytes(b)))
	node.box.Store(lBox)
	node.lock.unlock()
	t.insertSeparator(path, upSep, childRef{inner: rightInner}, nb.depth)
}

// insertSeparatorFromRoot descends afresh for sep and retries the
// separator insert with that path (taken when the recorded path lacks the
// level childDepth+1 because the root grew concurrently). The descent runs
// on to the leaf level; insertSeparator reads the path from childDepth up.
func (t *Tree) insertSeparatorFromRoot(sep uint64, right childRef, childDepth uint8) {
	var path descentPath
	t.descend(sep, &path, nil)
	t.insertSeparator(&path, sep, right, childDepth)
}

// growRoot installs a new root above the split node, or routes the insert
// through the current root if one already exists at a higher level.
func (t *Tree) growRoot(sep uint64, right childRef, childDepth uint8) {
	t.rootMu.Lock()
	cur := t.root.Load()
	if cur.box.Load().depth > childDepth+1 {
		// Another writer grew the root past this level already.
		t.rootMu.Unlock()
		t.insertSeparatorFromRoot(sep, right, childDepth)
		return
	}
	if cur.box.Load().depth == childDepth+1 {
		// A root at the right level appeared; insert into it.
		t.rootMu.Unlock()
		t.insertSeparatorFromRoot(sep, right, childDepth)
		return
	}
	newRoot := &Inner{}
	nb := &innerBox{
		keys:     []uint64{sep},
		children: []childRef{{inner: cur}, right},
		depth:    cur.box.Load().depth + 1,
	}
	newRoot.box.Store(nb)
	t.innerCount.Add(1)
	t.innerBytes.Add(int64(innerBoxBytes(nb)))
	t.root.Store(newRoot)
	t.rootMu.Unlock()
}

// Len returns the number of stored keys.
func (t *Tree) Len() int { return int(t.keyCount.Load()) }

// Bytes returns the tree's total footprint (leaf payloads + headers +
// inner nodes).
func (t *Tree) Bytes() int64 {
	var b int64
	for e := 0; e < 3; e++ {
		b += t.bytesByEnc[e].Load()
	}
	return b + t.innerBytes.Load()
}

// LeafCounts returns the number of leaves per encoding
// (succinct, packed, gapped).
func (t *Tree) LeafCounts() (succ, packed, gapped int64) {
	return t.countByEnc[EncSuccinct].Load(), t.countByEnc[EncPacked].Load(), t.countByEnc[EncGapped].Load()
}

// LeafBytes returns the byte footprint per encoding.
func (t *Tree) LeafBytes() (succ, packed, gapped int64) {
	return t.bytesByEnc[EncSuccinct].Load(), t.bytesByEnc[EncPacked].Load(), t.bytesByEnc[EncGapped].Load()
}

// Expansions returns the number of leaf expansions (migrations toward
// Gapped, including eager expand-on-insert).
func (t *Tree) Expansions() int64 { return t.expansions.Add(0) }

// Compactions returns the number of compacting migrations.
func (t *Tree) Compactions() int64 { return t.compactions.Add(0) }

// MigrateLeaf re-encodes one leaf to the target encoding. The new image
// is built optimistically outside the leaf's lock from a snapshot taken
// under a read version of the leaf's lock; the lock is then taken only to
// publish, by upgrading that version, which fails if any write locked the
// leaf in between. Box identity would not do: an in-place overwrite of a
// Gapped or Packed image changes contents, not the box, so a re-encode
// that raced it must be told by the version, or the overwrite is lost.
// Earlier revisions held the write lock across the whole O(decode+encode)
// build, which stalled every writer — and, before copy-on-write boxes,
// every reader — for the full re-encode. A failed upgrade means
// foreground writes are landing on the leaf; one retry covers the common
// single racing write, after which the migration gives up and lets a
// later phase re-propose. It reports whether the encoding changed. The
// displaced image is left to the garbage collector, which frees it once
// no reader holds it.
func (t *Tree) MigrateLeaf(l *Leaf, target core.Encoding) bool {
	t.migActive.Add(1)
	defer t.migActive.Add(-1)
	for attempt := 0; ; attempt++ {
		version, ok := l.lock.readLock()
		if !ok {
			return false
		}
		b := l.box.Load()
		if b.p.encoding() == target {
			return false
		}
		np := reencode(b.p, target)
		if !l.lock.upgrade(version) {
			if attempt == 0 {
				continue
			}
			return false
		}
		if b.p.encoding() < target {
			t.expansions.Add(1)
		} else {
			t.compactions.Add(1)
		}
		t.swapLeafBox(l, b, b.with(np))
		l.lock.unlock()
		if t.rcache != nil {
			// Bump the invalidation stripe of every key of the displaced
			// image: cached values stay correct (migration preserves the
			// key→value mapping) but in-flight admissions that read the
			// displaced payload must abort rather than race the swap.
			var mask [4]uint64
			for i, n := 0, b.p.count(); i < n; i++ {
				st := cache.StripeOf(b.p.keyAt(i))
				mask[st>>6] |= 1 << (st & 63)
			}
			t.rcache.BumpStripes(&mask)
		}
		return true
	}
}

// WalkLeaves visits every leaf left to right until fn returns false. It
// takes a consistent entry into the chain but, like scans, observes
// concurrent splits only through the sibling links. A leaf image's keys
// and links never change, so an image the callback loads stays valid
// while it holds it.
func (t *Tree) WalkLeaves(fn func(*Leaf) bool) {
	t.walkImages(func(l *Leaf, _ *leafBox) bool { return fn(l) })
}

// walkImages is WalkLeaves for a caller that reads the leaves' pairs: fn
// gets the image whose sibling link the walk follows. An image fn loaded
// itself may be older than the link; after a split in between, the link
// leads to the new sibling and fn has seen that sibling's keys already.
func (t *Tree) walkImages(fn func(*Leaf, *leafBox) bool) {
	// No separator is 0 (one is always above its left sibling's smallest
	// key), so the descent for key 0 ends at the leftmost leaf.
	leaf, _ := t.descend(0, nil, nil)
	for leaf != nil {
		b := leaf.box.Load()
		if !fn(leaf, b) {
			return
		}
		leaf = b.next
	}
}

// Validate checks structural invariants (test helper): key order within
// and across leaves, separator consistency, and key count. It must only
// be called while no writers are active.
func (t *Tree) Validate() error {
	leaf, _ := t.descend(0, nil, nil) // the leftmost leaf, see WalkLeaves
	var prev uint64
	first := true
	count := 0
	for leaf != nil {
		b := leaf.box.Load()
		for i := 0; i < b.p.count(); i++ {
			k := b.p.keyAt(i)
			if !first && k <= prev {
				return fmt.Errorf("keys out of order: %d after %d", k, prev)
			}
			if b.hasHigh && k >= b.highKey {
				return fmt.Errorf("key %d >= leaf highKey %d", k, b.highKey)
			}
			prev, first = k, false
			count++
		}
		leaf = b.next
	}
	if count != t.Len() {
		return fmt.Errorf("key count mismatch: walked %d, counter %d", count, t.Len())
	}
	return nil
}
