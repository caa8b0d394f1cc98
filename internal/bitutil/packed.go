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
// returns the count. This is the bulk access the paper's compact encodings
// amortize over sequential scans: unlike a Get(i) loop, the kernel computes
// each element's position incrementally and, on amd64 and arm64, decodes
// it with one unaligned load and a constant shift (decodeFast).
func (p *PackedArray) DecodeRange(lo, hi int, dst []uint64) int {
	return p.DecodeRangeAdd(lo, hi, dst, 0)
}

// DecodeRangeAdd is DecodeRange with add folded into every element during
// the store. Frame-of-reference decoding rides this to rebase a whole
// window in the unpack loop itself instead of paying a second pass over
// dst (FORArray.DecodeRange). The unaligned-load kernel decodes what it
// can; the portable kernel finishes the elements it leaves: those whose
// 8-byte load would reach past the payload, every element when the width
// exceeds 56, and every element on other architectures.
func (p *PackedArray) DecodeRangeAdd(lo, hi int, dst []uint64, add uint64) int {
	if lo < 0 || hi > p.n || lo > hi {
		panic("bitutil: DecodeRange bounds out of range")
	}
	n := hi - lo
	dst = dst[:n]
	w := uint(p.width)
	if w == 0 {
		for i := range dst {
			dst[i] = add
		}
		return n
	}
	i := decodeFast(p.words, w, lo, dst, add)
	p.decodePortable(lo+i, dst[i:], add)
	return n
}

// decodePortable decodes elements lo, lo+1, ... into all of dst with add
// folded in, for any width 1..64. Each element is extracted from its
// absolute bit position with two word loads, so the loads of consecutive
// elements are independent. The spill load is guarded for an element in
// the last word; the spill shift is split <<1<<(63-off) so both counts are
// provably < 64 (no oversized-shift fixup) and off == 0 contributes
// nothing.
func (p *PackedArray) decodePortable(lo int, dst []uint64, add uint64) {
	w := uint(p.width)
	mask := ^uint64(0) >> (64 - w)
	words := p.words
	bit := uint(lo) * w
	for i := range dst {
		word, off := bit>>6, bit&63
		v := words[word] >> off
		if word+1 < uint(len(words)) {
			v |= words[word+1] << 1 << (63 - off)
		}
		dst[i] = v&mask + add
		bit += w
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
