package btree

// Iterator is a pull-style ordered cursor over the tree. Each leaf it
// enters is decoded into the iterator's private buffer from the one
// image it loaded when it reached that leaf, so the cursor observes a
// per-leaf snapshot of the keys, with each value one the leaf held during
// the decode — like scans, it sees concurrent splits only through sibling
// links and never blocks writers or migrations.
// The zero value is invalid; obtain one from Tree.NewIterator or
// Session.NewIterator and position it with Seek/SeekFirst.
type Iterator struct {
	tree *Tree
	leaf *Leaf
	next *Leaf
	// keys/vals hold the decoded image of the current leaf.
	keys  []uint64
	vals  []uint64
	i     int
	valid bool
	// onLeaf observes every leaf the iterator enters (used by tracked
	// session iterators, §4.1.3: "iterators keep a pointer to the current
	// parent" — here tracking needs only the stable leaf identity).
	onLeaf func(*Leaf)
}

// NewIterator returns an unpositioned iterator.
func (t *Tree) NewIterator() *Iterator { return &Iterator{tree: t} }

// Seek positions at the first key >= k.
func (it *Iterator) Seek(k uint64) bool {
	t := it.tree
	leaf, _ := t.descend(k, nil, nil)
	leaf, box := moveRightLeaf(leaf, k, nil)
	it.enter(leaf, box)
	i, _ := searchBinaryScalar(it.keys, k)
	it.i = i
	it.valid = true
	return it.skipEmpty()
}

// SeekFirst positions at the smallest key.
func (it *Iterator) SeekFirst() bool { return it.Seek(0) }

// enter decodes the leaf image into the cursor's buffer via the bulk
// decodeRange kernel — one bulk unpack per leaf instead of an
// element-wise copy.
func (it *Iterator) enter(leaf *Leaf, box *leafBox) {
	it.leaf = leaf
	it.next = box.next
	n := box.p.count()
	if cap(it.keys) < n {
		c := n
		if c < LeafCap {
			c = LeafCap
		}
		it.keys = make([]uint64, 0, c)
		it.vals = make([]uint64, 0, c)
	}
	it.keys, it.vals = it.keys[:n], it.vals[:n]
	box.p.decodeRange(0, n, it.keys, it.vals)
	if it.onLeaf != nil {
		it.onLeaf(leaf)
	}
}

// skipEmpty advances across empty leaves until a key is under the cursor.
func (it *Iterator) skipEmpty() bool {
	for it.i >= len(it.keys) {
		n := it.next
		if n == nil {
			it.valid = false
			return false
		}
		it.enter(n, n.box.Load())
		it.i = 0
	}
	return true
}

// Next advances to the following key.
func (it *Iterator) Next() bool {
	if !it.valid {
		return false
	}
	it.i++
	if !it.skipEmpty() {
		return false
	}
	return true
}

// Valid reports whether the cursor is on a key.
func (it *Iterator) Valid() bool { return it.valid }

// Key returns the current key (Valid must hold).
func (it *Iterator) Key() uint64 { return it.keys[it.i] }

// Value returns the current value (Valid must hold).
func (it *Iterator) Value() uint64 { return it.vals[it.i] }

// NewIterator returns a tracked iterator: if the iterator creation is
// sampled, every leaf the cursor enters is tracked with the Scan access
// type, exactly like a sampled range scan.
func (s *Session) NewIterator() *Iterator {
	it := s.a.Tree.NewIterator()
	if s.sampler.IsSample() {
		it.onLeaf = s.trackScanFn
	}
	return it
}
