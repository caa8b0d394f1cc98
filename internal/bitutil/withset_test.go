package bitutil

import (
	"encoding/binary"
	"slices"
	"testing"
)

// checkWithSet applies WithSet(i, v) to a fresh encoding of vals and
// checks the three properties delta leaf writes rest on: the result
// equals, element by element, a fresh encoding of the edited values; the
// donor is bit-identical to its snapshot; and a value that fits the
// donor's frame and width is patched, leaving Bytes() unchanged.
func checkWithSet(t *testing.T, vals []uint64, i int, v uint64) {
	t.Helper()
	f := NewFORArray(vals)
	snapWords := slices.Clone(f.deltas.words)
	snapMin, snapWidth := f.min, f.deltas.width

	got := f.WithSet(i, v)

	want := slices.Clone(vals)
	want[i] = v
	ref := NewFORArray(want)
	if got.Len() != ref.Len() {
		t.Fatalf("WithSet(%d, %d): Len %d, want %d", i, v, got.Len(), ref.Len())
	}
	dec := make([]uint64, len(want))
	got.DecodeRange(0, len(want), dec)
	for j := range want {
		if got.Get(j) != want[j] || dec[j] != want[j] {
			t.Fatalf("WithSet(%d, %d) width %d: element %d is Get %d / decode %d, want %d",
				i, v, snapWidth, j, got.Get(j), dec[j], want[j])
		}
	}
	if f.min != snapMin || f.deltas.width != snapWidth || !slices.Equal(f.deltas.words, snapWords) {
		t.Fatalf("WithSet(%d, %d) modified its donor", i, v)
	}
	for j := range vals {
		if f.Get(j) != vals[j] {
			t.Fatalf("WithSet(%d, %d): donor element %d now %d, want %d", i, v, j, f.Get(j), vals[j])
		}
	}
	inFrame := v >= snapMin && (snapWidth == 64 || (v-snapMin)>>snapWidth == 0)
	if inFrame {
		if got.Bytes() != f.Bytes() || got.min != snapMin || got.deltas.width != snapWidth {
			t.Fatalf("WithSet(%d, %d): in-frame value was not patched (bytes %d vs %d)", i, v, got.Bytes(), f.Bytes())
		}
		if len(snapWords) > 0 && &got.deltas.words[0] == &f.deltas.words[0] {
			t.Fatalf("WithSet(%d, %d): patched copy shares the donor's words", i, v)
		}
	} else if got.min != ref.min || got.deltas.width != ref.deltas.width {
		t.Fatalf("WithSet(%d, %d): re-encode is not canonical: frame %d width %d, want %d / %d",
			i, v, got.min, got.deltas.width, ref.min, ref.deltas.width)
	}
}

func TestFORWithSet(t *testing.T) {
	const base = uint64(1) << 40
	for _, width := range []uint{0, 1, 7, 13, 32, 33, 63, 64} {
		var span uint64 // largest delta of the donor
		switch {
		case width == 64:
			span = ^uint64(0)
		case width > 0:
			span = 1<<width - 1
		}
		min := base
		if width >= 63 {
			min = 0 // leave the deltas their full width
		}
		for _, n := range []int{1, 2, 65, 179, 256} {
			vals := make([]uint64, n)
			x := uint64(0x9e3779b97f4a7c15)
			for j := range vals {
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				vals[j] = min
				if span > 0 {
					vals[j] += x % span
				}
			}
			// Pin the extremes so the donor really has this frame and width.
			vals[0] = min
			vals[n-1] = min + span
			idx := []int{0, n / 2, n - 1}
			if width > 0 && width < 64 && n > 64/int(width)+1 {
				// A field that straddles a word boundary, if the width has one.
				for j := 0; j < n; j++ {
					if off := uint(j) * width % 64; off+width > 64 {
						idx = append(idx, j)
						break
					}
				}
			}
			cand := []uint64{min, min + span, min + span/2, min + 1}
			if min > 0 {
				cand = append(cand, min-1, 0) // below the frame
			}
			if min+span+1 > min+span {
				cand = append(cand, min+span+1, ^uint64(0)) // above the width
			}
			for _, i := range idx {
				for _, v := range cand {
					checkWithSet(t, vals, i, v)
				}
			}
		}
	}
}

// TestFORWithSetChain overwrites the same array repeatedly, each result
// the donor of the next, so patched (possibly non-canonical) arrays are
// themselves patched and re-encoded.
func TestFORWithSetChain(t *testing.T) {
	vals := make([]uint64, 200)
	for j := range vals {
		vals[j] = 1000 + uint64(j)*3
	}
	f := NewFORArray(vals)
	x := uint64(42)
	for step := 0; step < 2000; step++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i := int(x % uint64(len(vals)))
		v := 900 + (x>>8)%1200 // mostly in frame, sometimes below or above
		if step%97 == 0 {
			v = x
		}
		f = f.WithSet(i, v)
		vals[i] = v
	}
	for j := range vals {
		if f.Get(j) != vals[j] {
			t.Fatalf("element %d is %d after the chain, want %d", j, f.Get(j), vals[j])
		}
	}
}

func TestFORWithSetOutOfRange(t *testing.T) {
	f := NewFORArray([]uint64{1, 2, 3})
	for _, i := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("WithSet(%d) on 3 elements did not panic", i)
				}
			}()
			f.WithSet(i, 0)
		}()
	}
}

// FuzzFORWithSet checks WithSet against NewFORArray on fuzzer-chosen
// contents, position and value.
func FuzzFORWithSet(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}, uint16(0), uint64(3), uint8(0))
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1), uint64(7), uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, uint16(0), uint64(1)<<63, uint8(40))
	f.Fuzz(func(t *testing.T, raw []byte, pos uint16, v uint64, shift uint8) {
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
		checkWithSet(t, vals, int(pos)%len(vals), v)
		checkWithSet(t, vals, int(pos)%len(vals), v>>(shift%64))
	})
}
