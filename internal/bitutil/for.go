package bitutil

import "math/bits"

// FORArray is a frame-of-reference coded array of uint64 values: the minimum
// (the frame) is stored once, the per-element deltas are bit-packed with the
// minimum width that fits the largest delta. Random access stays O(1), which
// is what distinguishes FOR from delta coding and what the Succinct leaf
// encoding of the paper relies on.
//
// NewFORArray produces the canonical form: the frame is the true minimum
// and the width the smallest that fits the largest delta. WithSet may
// return a non-canonical array — same frame and width as its source even
// when the patched value would now allow a tighter one — whose Bytes()
// equals its source's. Every operation reads such an array correctly;
// decoding and re-encoding through NewFORArray (leaf migrations and
// checkpoints do) restores the canonical form.
type FORArray struct {
	deltas PackedArray
	min    uint64
}

// NewFORArray encodes vals. The input need not be sorted; the frame is the
// minimum value. An empty input is valid. The deltas are packed directly
// from the input — no intermediate delta slice is materialized, so
// re-encoding a leaf allocates only the packed words themselves.
func NewFORArray(vals []uint64) FORArray {
	if len(vals) == 0 {
		return FORArray{}
	}
	min, max := vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	width := BitsFor(max - min)
	f := FORArray{min: min, deltas: PackedArray{n: len(vals), width: width}}
	if width > 0 {
		f.deltas.words = make([]uint64, (len(vals)*int(width)+63)/64)
		for i, v := range vals {
			f.deltas.set(i, v-min)
		}
	}
	return f
}

// forStackBuf is the decode buffer WithSet keeps on the stack when it has
// to re-encode; B+-tree leaves (at most 256 pairs) always fit.
const forStackBuf = 256

// WithSet returns a copy of f whose element i is v; f itself is not
// modified. When v fits f's frame and width, the packed words are copied
// and the one field is patched in place of a decode and re-encode, which
// may leave the result non-canonical (see the type comment). Otherwise
// the elements are decoded, edited and encoded afresh.
func (f *FORArray) WithSet(i int, v uint64) FORArray {
	n, w := f.deltas.n, f.deltas.width
	if uint(i) >= uint(n) {
		panic("bitutil: FORArray.WithSet index out of range")
	}
	if d := v - f.min; v >= f.min && (w == 64 || d>>w == 0) {
		nf := FORArray{min: f.min, deltas: PackedArray{n: n, width: w}}
		if w > 0 {
			nf.deltas.words = make([]uint64, len(f.deltas.words))
			copy(nf.deltas.words, f.deltas.words)
			nf.deltas.put(i, d)
		}
		return nf
	}
	var stack [forStackBuf]uint64
	buf := stack[:]
	if n > len(stack) {
		buf = make([]uint64, n)
	}
	f.DecodeRange(0, n, buf)
	buf[i] = v
	return NewFORArray(buf[:n])
}

// Len returns the number of elements.
func (f *FORArray) Len() int { return f.deltas.Len() }

// Min returns the frame (the smallest encoded value); 0 for an empty array.
func (f *FORArray) Min() uint64 { return f.min }

// Get returns element i.
func (f *FORArray) Get(i int) uint64 { return f.min + f.deltas.Get(i) }

// Bytes returns the packed payload size plus the frame.
func (f *FORArray) Bytes() int { return f.deltas.Bytes() + 8 }

// Search returns the position of the first element >= key, assuming the
// array was built from sorted input. It binary-searches directly on the
// packed representation without materializing the values.
func (f *FORArray) Search(key uint64) int {
	n := f.deltas.Len()
	if n == 0 || key <= f.min {
		return 0
	}
	target := key - f.min
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if f.deltas.Get(mid) < target {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// skipBlock is the block length of SearchSkip: 16 deltas cover at most
// two cache lines of packed words at the widths leaf payloads use.
const skipBlock = 16

// SearchSkip returns the position of the first element >= key (assuming
// sorted input), like Search, but via a block-skip scan over the packed
// deltas instead of a binary search: the skip phase probes only the last
// delta of each 16-element block — sequential positions whose packed words
// the hardware prefetcher streams — and the in-block phase counts smaller
// deltas branchlessly. Binary search performs fewer probes, but each one
// is a data-dependent shift/mask chain the next probe must wait for; the
// skip scan's probes are independent and pipeline.
func (f *FORArray) SearchSkip(key uint64) int { return f.SearchSkipFrom(key, 0) }

// SearchSkipFrom is SearchSkip seeded with a lower bound: every element
// before position from is known to be < key, so the skip scan starts at
// from's block instead of the array head. Batched lookups exploit this —
// the keys of one sorted leaf run probe with ascending seeds, so a run's
// probes together scan the packed deltas once instead of once per key.
func (f *FORArray) SearchSkipFrom(key uint64, from int) int {
	n := f.deltas.Len()
	if n == 0 || key <= f.min {
		return 0
	}
	target := key - f.min
	b := (from / skipBlock) * skipBlock
	for ; b+skipBlock <= n; b += skipBlock {
		if f.deltas.Get(b+skipBlock-1) >= target {
			break
		}
	}
	end := b + skipBlock
	if end > n {
		end = n
	}
	// Branchless in-block count: elements < target contribute one borrow
	// each; no comparison result gates the next load.
	c := uint64(0)
	for i := b; i < end; i++ {
		_, borrow := bits.Sub64(f.deltas.Get(i), target, 0)
		c += borrow
	}
	return b + int(c)
}

// DecodeRange decodes elements [lo, hi) into dst (len(dst) >= hi-lo) and
// returns the count: one bulk unpack of the packed deltas with
// the frame folded into every store (PackedArray.DecodeRangeAdd), so
// rebasing costs no second pass over dst.
func (f *FORArray) DecodeRange(lo, hi int, dst []uint64) int {
	return f.deltas.DecodeRangeAdd(lo, hi, dst, f.min)
}

// Touch prefetches the packed delta words (see PackedArray.Touch).
func (f *FORArray) Touch() uint64 { return f.deltas.Touch() }

// AppendTo appends all decoded elements to dst and returns the slice.
func (f *FORArray) AppendTo(dst []uint64) []uint64 {
	base := len(dst)
	n := f.deltas.Len()
	dst = growU64(dst, n)
	f.DecodeRange(0, n, dst[base:])
	return dst
}
