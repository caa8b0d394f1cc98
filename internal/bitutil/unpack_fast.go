//go:build amd64 || arm64

package bitutil

import "unsafe"

// maxFastWidth is the widest element decodeFast handles: an element starts
// at most 7 bits into the byte that holds its first bit, so one 8-byte
// load covers it while 7 + w <= 64.
const maxFastWidth = 56

// decodeFast decodes elements lo, lo+1, ... of the little-endian bit stream
// words, w bits each, into dst with add folded into every store, and
// returns how many it decoded from the front of dst. It stops early at the
// first element whose 8-byte load would reach past the end of words, and
// decodes nothing when w > maxFastWidth; the portable kernel finishes the
// rest.
//
// Element j's bits start at bit j*w of the stream, which on a
// little-endian machine is bit (j*w)&7 of the unaligned 8-byte load at
// byte (j*w)>>3: one load, one shift and one mask an element. From an
// element index that is a multiple of 8, every 8 elements span exactly w
// bytes, and element k of such a group sits at byte offset (k*w)>>3 and
// bit offset (k*w)&7 of the group's first byte. The bit offsets depend
// only on w&7, so each of the eight cases below unrolls a group with
// constant shift counts; a variable count is a multi-uop SHRQ CX at the
// default GOAMD64=v1. At most 7 single elements run before the first
// group and after the last.
//
// Safety: every load reads bytes [b, b+8) of the words' backing array
// with b+8 <= len(words)*8, checked before the load, so no load leaves the
// slice. Stores stay bounds-checked: singles index dst, and a group
// stores through the length-checked conversion (*[8]uint64)(rest).
func decodeFast(words []uint64, w uint, lo int, dst []uint64, add uint64) int {
	if w > maxFastWidth {
		return 0
	}
	n := len(dst)
	limit := uint(len(words)) * 8
	base := unsafe.Pointer(unsafe.SliceData(words))
	ld := func(p unsafe.Pointer, off uint) uint64 { return *(*uint64)(unsafe.Add(p, off)) }
	mask := uint64(1)<<w - 1
	bit := uint(lo) * w
	i := 0
	for ; i < n && (lo+i)&7 != 0; i++ {
		b := bit >> 3
		if b+8 > limit {
			return i
		}
		dst[i] = ld(base, b)>>(bit&7)&mask + add
		bit += w
	}
	// bit is a multiple of 8 here: element lo+i is a multiple of 8. With
	// q = w>>3, a group's element k sits at byte k*q + (k*(w&7))>>3, the
	// second term a constant of the case. Addressing every load from p
	// or p4 = p + 4*q plus 0, q, 2*q or 3*q keeps few values live across
	// the loop; eight precomputed offsets would spill to the stack.
	b := bit >> 3
	q, q3 := w>>3, 3*(w>>3)
	rest := dst[i:]
	if end := 7*w>>3 + 8; limit >= end {
		last := limit - end // the last group start whose loads fit
		switch w & 7 {
		case 0:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)&mask + add
				d[2] = ld(p, 2*q)&mask + add
				d[3] = ld(p, q3)&mask + add
				d[4] = ld(p4, 0)&mask + add
				d[5] = ld(p4, q)&mask + add
				d[6] = ld(p4, 2*q)&mask + add
				d[7] = ld(p4, q3)&mask + add
			}
		case 1:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>1&mask + add
				d[2] = ld(p, 2*q)>>2&mask + add
				d[3] = ld(p, q3)>>3&mask + add
				d[4] = ld(p4, 0)>>4&mask + add
				d[5] = ld(p4, q)>>5&mask + add
				d[6] = ld(p4, 2*q)>>6&mask + add
				d[7] = ld(p4, q3)>>7&mask + add
			}
		case 2:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>2&mask + add
				d[2] = ld(p, 2*q)>>4&mask + add
				d[3] = ld(p, q3)>>6&mask + add
				d[4] = ld(p4, 1)&mask + add
				d[5] = ld(p4, q+1)>>2&mask + add
				d[6] = ld(p4, 2*q+1)>>4&mask + add
				d[7] = ld(p4, q3+1)>>6&mask + add
			}
		case 3:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>3&mask + add
				d[2] = ld(p, 2*q)>>6&mask + add
				d[3] = ld(p, q3+1)>>1&mask + add
				d[4] = ld(p4, 1)>>4&mask + add
				d[5] = ld(p4, q+1)>>7&mask + add
				d[6] = ld(p4, 2*q+2)>>2&mask + add
				d[7] = ld(p4, q3+2)>>5&mask + add
			}
		case 4:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>4&mask + add
				d[2] = ld(p, 2*q+1)&mask + add
				d[3] = ld(p, q3+1)>>4&mask + add
				d[4] = ld(p4, 2)&mask + add
				d[5] = ld(p4, q+2)>>4&mask + add
				d[6] = ld(p4, 2*q+3)&mask + add
				d[7] = ld(p4, q3+3)>>4&mask + add
			}
		case 5:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>5&mask + add
				d[2] = ld(p, 2*q+1)>>2&mask + add
				d[3] = ld(p, q3+1)>>7&mask + add
				d[4] = ld(p4, 2)>>4&mask + add
				d[5] = ld(p4, q+3)>>1&mask + add
				d[6] = ld(p4, 2*q+3)>>6&mask + add
				d[7] = ld(p4, q3+4)>>3&mask + add
			}
		case 6:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>6&mask + add
				d[2] = ld(p, 2*q+1)>>4&mask + add
				d[3] = ld(p, q3+2)>>2&mask + add
				d[4] = ld(p4, 3)&mask + add
				d[5] = ld(p4, q+3)>>6&mask + add
				d[6] = ld(p4, 2*q+4)>>4&mask + add
				d[7] = ld(p4, q3+5)>>2&mask + add
			}
		case 7:
			for ; len(rest) >= 8 && b <= last; rest, b = rest[8:], b+w {
				p, p4 := unsafe.Add(base, b), unsafe.Add(base, b+4*q)
				d := (*[8]uint64)(rest)
				d[0] = ld(p, 0)&mask + add
				d[1] = ld(p, q)>>7&mask + add
				d[2] = ld(p, 2*q+1)>>6&mask + add
				d[3] = ld(p, q3+2)>>5&mask + add
				d[4] = ld(p4, 3)>>4&mask + add
				d[5] = ld(p4, q+4)>>3&mask + add
				d[6] = ld(p4, 2*q+5)>>2&mask + add
				d[7] = ld(p4, q3+6)>>1&mask + add
			}
		}
	}
	i = n - len(rest)
	for bit = b << 3; i < n; i++ {
		b := bit >> 3
		if b+8 > limit {
			return i
		}
		dst[i] = ld(base, b)>>(bit&7)&mask + add
		bit += w
	}
	return i
}
