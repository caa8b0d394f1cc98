// Package bitutil provides the succinct building blocks used throughout the
// repository: fixed-width bit-packed integer arrays, frame-of-reference
// coding for sorted and unsorted 64-bit sequences, and bit vectors with
// constant-time rank and fast select.
//
// All structures store their payload in flat []uint64 slices so that a node
// encoded with them is a small, pointer-free object: the garbage collector
// never has to trace into the packed data, which keeps compact encodings
// cheap in Go.
package bitutil

import (
	"fmt"
	"math/bits"
)

// PackedArray is an immutable array of n unsigned integers, each stored in
// exactly Width bits. Width 0 is valid and represents an array of zeros.
type PackedArray struct {
	words []uint64
	n     int
	width uint8
}

// NewPackedArray packs vals into width-bit slots. It panics if a value does
// not fit, because callers are expected to derive width via BitsFor.
func NewPackedArray(vals []uint64, width uint8) PackedArray {
	if width > 64 {
		panic("bitutil: width > 64")
	}
	p := PackedArray{n: len(vals), width: width}
	if width == 0 || len(vals) == 0 {
		return p
	}
	p.words = make([]uint64, (len(vals)*int(width)+63)/64)
	for i, v := range vals {
		if width < 64 && v>>width != 0 {
			panic(fmt.Sprintf("bitutil: value %d does not fit in %d bits", v, width))
		}
		p.set(i, v)
	}
	return p
}

// BitsFor returns the minimum width able to represent v.
func BitsFor(v uint64) uint8 {
	if v == 0 {
		return 0
	}
	return uint8(bits.Len64(v))
}

// Len returns the number of elements.
func (p *PackedArray) Len() int { return p.n }

// Width returns the per-element width in bits.
func (p *PackedArray) Width() uint8 { return p.width }

// Bytes returns the heap footprint of the packed payload in bytes.
func (p *PackedArray) Bytes() int { return len(p.words) * 8 }

func (p *PackedArray) set(i int, v uint64) {
	w := uint(p.width)
	bit := uint(i) * w
	word, off := bit/64, bit%64
	p.words[word] |= v << off
	if off+w > 64 {
		p.words[word+1] |= v >> (64 - off)
	}
}

// put overwrites field i with v, which must fit the width (1..64). Unlike
// set it does not assume the field is still zero.
func (p *PackedArray) put(i int, v uint64) {
	w := uint(p.width)
	bit := uint(i) * w
	word, off := bit/64, bit%64
	mask := ^uint64(0) >> (64 - w)
	p.words[word] = p.words[word]&^(mask<<off) | v<<off
	if off+w > 64 {
		sh := 64 - off
		p.words[word+1] = p.words[word+1]&^(mask>>sh) | v>>sh
	}
}

// Get returns element i. It performs at most two word reads and a handful
// of shifts — the "additional instructions and bitwise operations" the
// paper attributes to the succinct layout.
func (p *PackedArray) Get(i int) uint64 {
	if p.width == 0 {
		return 0
	}
	w := uint(p.width)
	bit := uint(i) * w
	word, off := bit/64, bit%64
	v := p.words[word] >> off
	if off+w > 64 {
		v |= p.words[word+1] << (64 - off)
	}
	if w == 64 {
		return v
	}
	return v & (1<<w - 1)
}

// DecodeRange decodes elements [lo, hi) into dst (len(dst) >= hi-lo) and
// returns the count. Unlike a Get(i) loop — which recomputes the word/bit
// position and reloads the packed word for every element — the kernel
// walks the words once with a rolling bit buffer: each output element
// costs a couple of shifts, and each packed word is loaded exactly once.
// This is the bulk access the paper's compact encodings amortize over
// sequential scans.
func (p *PackedArray) DecodeRange(lo, hi int, dst []uint64) int {
	return p.DecodeRangeAdd(lo, hi, dst, 0)
}

// DecodeRangeAdd is DecodeRange with add folded into every element during
// the store. Frame-of-reference decoding rides this to rebase a whole
// window in the unpack loop itself instead of paying a second pass over
// dst (FORArray.DecodeRange).
func (p *PackedArray) DecodeRangeAdd(lo, hi int, dst []uint64, add uint64) int {
	if lo < 0 || hi > p.n || lo > hi {
		panic("bitutil: DecodeRange bounds out of range")
	}
	n := hi - lo
	if n == 0 {
		return 0
	}
	w := uint(p.width)
	if w == 0 {
		for i := 0; i < n; i++ {
			dst[i] = add
		}
		return n
	}
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<w - 1
	}
	words := p.words
	dst = dst[:n] // hoist the bound check out of the loops
	if w > 32 {
		// Wide elements (at most one per word): the rolling bit buffer
		// below would degenerate into a serial straddle chain — element
		// i+1's bits cannot be extracted until element i's leftover is
		// known. Computing each element from its absolute bit position
		// instead makes the word loads of consecutive elements
		// independent, so the out-of-order core overlaps their cache
		// misses and shift work across iterations.
		bit := uint(lo) * w
		last := n - 1
		for i := 0; i < last; i++ {
			word := bit >> 6
			off := bit & 63
			// For w > 32 every element before the last is followed by one
			// that spills into words[word+1], so the load is always in
			// range. The spill shift is split <<1<<(63-off) instead of
			// <<(64-off): both counts are provably < 64, so the compiler
			// drops the oversized-shift fixup (a compare+cmov per element),
			// and off == 0 still contributes nothing.
			v := words[word]>>off | words[word+1]<<1<<(63-off)
			dst[i] = (v & mask) + add
			bit += w
		}
		word := bit >> 6
		off := bit & 63
		v := words[word] >> off
		if off+w > 64 {
			v |= words[word+1] << (64 - off)
		}
		dst[last] = (v & mask) + add
		return n
	}
	bit := uint(lo) * w
	word := int(bit >> 6)
	off := bit & 63
	// cur holds the not-yet-consumed bits of words[word], already shifted
	// down; its top (64-avail) bits are zero.
	cur := words[word] >> off
	avail := 64 - off
	w2, w4 := 2*w, 4*w
	i := 0
	for {
		// Drain fully buffered elements, four then two at a time while the
		// buffer allows: the unrolled extracts all shift the same snapshot
		// of cur, so they issue in parallel instead of waiting on the
		// rolling cur update, and the loop branches amortize over four
		// elements. (For w > 16, 4w > 64 and the four-wide loop never
		// runs; likewise two-wide for w > 32 — handled above.)
		for avail >= w4 && n-i >= 4 {
			// Progressive shifts: every count is w itself, which the
			// surrounding branch bounds at <= 32, so the compiler proves
			// each shift in range and emits no oversized-shift fixups;
			// the extracts all pull from the chain's intermediates in
			// parallel.
			c1 := cur >> w
			c2 := c1 >> w
			c3 := c2 >> w
			dst[i] = (cur & mask) + add
			dst[i+1] = (c1 & mask) + add
			dst[i+2] = (c2 & mask) + add
			dst[i+3] = (c3 & mask) + add
			cur = c3 >> w
			avail -= w4
			i += 4
		}
		for avail >= w2 && n-i >= 2 {
			c1 := cur >> w
			dst[i] = (cur & mask) + add
			dst[i+1] = (c1 & mask) + add
			cur = c1 >> w
			avail -= w2
			i += 2
		}
		for avail >= w {
			if i == n {
				return n
			}
			dst[i] = (cur & mask) + add
			cur >>= w
			avail -= w
			i++
		}
		if i == n {
			return n
		}
		// Straddle: element i's top w-avail bits sit in the next word. At
		// this point avail < w <= 32, so the &31/&63 masks cannot change
		// either shift count — they only make the bound visible to the
		// compiler, which then drops the oversized-shift fixups.
		word++
		nw := words[word]
		dst[i] = ((cur | nw<<(avail&31)) & mask) + add
		cur = nw >> ((w - avail) & 63)
		avail += 64 - w
		i++
	}
}

// Touch reads one word per cache line of the packed payload and returns
// their sum. Callers use it as a software prefetch: issuing the loads for
// an upcoming array while unrelated work is in flight lets the misses
// overlap instead of stalling the eventual decode. The sum forces the
// loads to retire (the compiler cannot elide them).
func (p *PackedArray) Touch() uint64 {
	var s uint64
	for i := 0; i < len(p.words); i += 8 {
		s += p.words[i]
	}
	return s
}

// AppendTo appends all elements to dst and returns the extended slice.
func (p *PackedArray) AppendTo(dst []uint64) []uint64 {
	base := len(dst)
	dst = growU64(dst, p.n)
	p.DecodeRange(0, p.n, dst[base:])
	return dst
}

// growU64 extends dst by n elements, reusing capacity when possible.
func growU64(dst []uint64, n int) []uint64 {
	need := len(dst) + n
	if cap(dst) >= need {
		return dst[:need]
	}
	nd := make([]uint64, need)
	copy(nd, dst)
	return nd
}

// errTruncated reports malformed serialized input.
var errTruncated = errorString("bitutil: truncated or corrupt serialized data")

type errorString string

func (e errorString) Error() string { return string(e) }
