package bitutil

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
)

// forVals returns n values of frame base and exact delta width w: random
// deltas below 1<<w, with element 0 pinned at the frame and element n-1 at
// the largest delta, so the last field is all ones (n = 1 leaves width 0).
func forVals(n int, w uint, base uint64) []uint64 {
	var span uint64
	switch {
	case w == 64:
		span = ^uint64(0)
	case w > 0:
		span = 1<<w - 1
	}
	vals := make([]uint64, n)
	x := uint64(0x9e3779b97f4a7c15) ^ uint64(n)<<8 ^ uint64(w)
	for j := range vals {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		vals[j] = base + x&span
	}
	vals[0] = base
	vals[n-1] = base + span
	return vals
}

// dirtyTail returns a copy of f whose bits past the last field are all
// ones: the kernel must clear the bits it shifts in from past the end.
func dirtyTail(f FORArray) FORArray {
	f.deltas.words = slices.Clone(f.deltas.words)
	if t := uint(f.deltas.n) * uint(f.deltas.width) % 64; t != 0 {
		f.deltas.words[len(f.deltas.words)-1] |= ^uint64(0) << t
	}
	return f
}

// checkWithoutAt applies WithoutAt(i) to f, which holds vals, and checks
// that the result holds vals without element i — through Get, DecodeRange
// from the front and from inside the array, and the raw DecodeRangeAdd
// kernel, whose unaligned loads read the tail word — in f's frame and
// width, at the exact word count for its length, with every bit past its
// last field zero; that the donor is bit-identical to its snapshot; and
// that Bytes() did not grow.
func checkWithoutAt(t *testing.T, f FORArray, vals []uint64, i int) {
	t.Helper()
	snapWords := slices.Clone(f.deltas.words)
	snapMin, snapN, w := f.min, f.deltas.n, uint(f.deltas.width)

	got := f.WithoutAt(i)
	what := fmt.Sprintf("n=%d width=%d WithoutAt(%d)", len(vals), w, i)

	if f.min != snapMin || f.deltas.n != snapN || uint(f.deltas.width) != w || !slices.Equal(f.deltas.words, snapWords) {
		t.Fatalf("%s modified its donor", what)
	}
	if got.Bytes() > f.Bytes() {
		t.Fatalf("%s: Bytes %d, donor %d", what, got.Bytes(), f.Bytes())
	}
	want := slices.Delete(slices.Clone(vals), i, i+1)
	m := len(want)
	if m == 0 {
		if got.Len() != 0 || got.min != 0 || got.deltas.width != 0 || got.deltas.words != nil {
			t.Fatalf("%s: got %+v, want the empty FORArray{}", what, got)
		}
		return
	}
	if got.Len() != m || got.min != snapMin || uint(got.deltas.width) != w {
		t.Fatalf("%s: Len %d frame %d width %d, want %d / %d / %d",
			what, got.Len(), got.min, got.deltas.width, m, snapMin, w)
	}
	words := got.deltas.words
	if len(words) != (m*int(w)+63)/64 {
		t.Fatalf("%s: %d words, want %d", what, len(words), (m*int(w)+63)/64)
	}
	if len(words) > 0 && len(snapWords) > 0 && &words[0] == &f.deltas.words[0] {
		t.Fatalf("%s: result shares the donor's words", what)
	}
	if tb := uint(m) * w % 64; tb != 0 && words[len(words)-1]>>tb != 0 {
		t.Fatalf("%s: bits past the last field are %#x", what, words[len(words)-1]>>tb)
	}
	const add = 0x5bd1e995
	dec := make([]uint64, m)
	raw := make([]uint64, m)
	got.deltas.DecodeRangeAdd(0, m, raw, add)
	for j := range want {
		if got.Get(j) != want[j] || raw[j] != want[j]-snapMin+add {
			t.Fatalf("%s: element %d is Get %d / DecodeRangeAdd %d, want %d",
				what, j, got.Get(j), raw[j]-add+snapMin, want[j])
		}
	}
	for _, lo := range slices.Compact([]int{0, min(3, m-1), m / 2, m - 1}) {
		got.DecodeRange(lo, m, dec)
		for j := lo; j < m; j++ {
			if dec[j-lo] != want[j] {
				t.Fatalf("%s: DecodeRange(%d, %d) element %d is %d, want %d", what, lo, m, j, dec[j-lo], want[j])
			}
		}
	}
}

// TestFORWithoutAt deletes every position of arrays of every width and of
// lengths around word and decode-group boundaries, from clean donors and
// from donors with junk past their last field.
func TestFORWithoutAt(t *testing.T) {
	for w := uint(0); w <= 64; w++ {
		base := uint64(1) << 40
		if w >= 24 {
			base = 0 // leave the deltas their full width
		}
		for _, n := range []int{1, 2, 7, 8, 9, 63, 64, 65, 179, 256} {
			vals := forVals(n, w, base)
			f := NewFORArray(vals)
			if n > 1 && (uint(f.deltas.width) != w || f.min != base) {
				t.Fatalf("n=%d: donor has frame %d width %d, want %d / %d", n, f.min, f.deltas.width, base, w)
			}
			dirty := dirtyTail(f)
			for i := 0; i < n; i++ {
				checkWithoutAt(t, f, vals, i)
				checkWithoutAt(t, dirty, vals, i)
			}
		}
	}
}

func TestFORWithoutAtOutOfRange(t *testing.T) {
	for _, f := range []FORArray{{}, NewFORArray([]uint64{1, 2, 3})} {
		for _, i := range []int{-1, f.Len()} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("WithoutAt(%d) on %d elements did not panic", i, f.Len())
					}
				}()
				f.WithoutAt(i)
			}()
		}
	}
}

// FuzzFORWithoutAt checks WithoutAt against the remaining elements on
// fuzzer-chosen contents and position, from a clean and a dirty-tailed
// donor.
func FuzzFORWithoutAt(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint16(0), uint8(0))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 1}, uint16(1), uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, pos uint16, shift uint8) {
		if len(raw) > 8*300 {
			raw = raw[:8*300]
		}
		vals := make([]uint64, 0, len(raw)/8)
		for i := 0; i+8 <= len(raw); i += 8 {
			// shift narrows the values so small widths are reachable too.
			vals = append(vals, binary.LittleEndian.Uint64(raw[i:])>>(shift%64))
		}
		if len(vals) == 0 {
			return
		}
		fa := NewFORArray(vals)
		checkWithoutAt(t, fa, vals, int(pos)%len(vals))
		checkWithoutAt(t, dirtyTail(fa), vals, int(pos)%len(vals))
	})
}

// withoutAtSink keeps BenchmarkFORWithoutAt's result live.
var withoutAtSink FORArray

// BenchmarkFORWithoutAt deletes one element from a 179-element array (a
// Succinct leaf's size) per op, cycling through the positions, at widths
// inside and past the unaligned-load decode kernel's limit.
func BenchmarkFORWithoutAt(b *testing.B) {
	const n = 179
	for _, w := range []uint{12, 28, 49, 60} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			f := NewFORArray(forVals(n, w, 1<<20))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				withoutAtSink = f.WithoutAt(i % n)
			}
		})
	}
}
