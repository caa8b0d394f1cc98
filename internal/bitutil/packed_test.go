package bitutil

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackedArrayRoundTrip(t *testing.T) {
	for _, width := range []uint8{0, 1, 3, 7, 8, 13, 31, 32, 33, 63, 64} {
		rng := rand.New(rand.NewSource(int64(width)))
		n := 257
		vals := make([]uint64, n)
		for i := range vals {
			if width == 0 {
				vals[i] = 0
			} else if width == 64 {
				vals[i] = rng.Uint64()
			} else {
				vals[i] = rng.Uint64() & (1<<width - 1)
			}
		}
		p := NewPackedArray(vals, width)
		if p.Len() != n {
			t.Fatalf("width %d: Len=%d want %d", width, p.Len(), n)
		}
		for i, want := range vals {
			if got := p.Get(i); got != want {
				t.Fatalf("width %d: Get(%d)=%d want %d", width, i, got, want)
			}
		}
	}
}

func TestPackedArrayEmpty(t *testing.T) {
	p := NewPackedArray(nil, 17)
	if p.Len() != 0 || p.Bytes() != 0 {
		t.Fatalf("empty array: Len=%d Bytes=%d", p.Len(), p.Bytes())
	}
}

func TestPackedArrayPanicsOnOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for value exceeding width")
		}
	}()
	NewPackedArray([]uint64{8}, 3)
}

func TestBitsFor(t *testing.T) {
	cases := map[uint64]uint8{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1<<63 - 1: 63, 1 << 63: 64}
	for v, want := range cases {
		if got := BitsFor(v); got != want {
			t.Errorf("BitsFor(%d)=%d want %d", v, got, want)
		}
	}
}

func TestPackedArrayQuick(t *testing.T) {
	f := func(vals []uint64) bool {
		for i := range vals {
			vals[i] &= 1<<37 - 1
		}
		p := NewPackedArray(vals, 37)
		got := p.AppendTo(nil)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFORArrayRoundTripAndSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, 500)
	base := uint64(1 << 40)
	cur := base
	for i := range vals {
		cur += uint64(rng.Intn(1000) + 1)
		vals[i] = cur
	}
	f := NewFORArray(vals)
	if f.Len() != len(vals) || f.Min() != vals[0] {
		t.Fatalf("Len=%d Min=%d", f.Len(), f.Min())
	}
	for i, want := range vals {
		if got := f.Get(i); got != want {
			t.Fatalf("Get(%d)=%d want %d", i, got, want)
		}
	}
	// Search must match sort.Search semantics (first index with v >= key).
	probes := []uint64{0, base, vals[0], vals[0] + 1, vals[250], vals[250] - 1, vals[499], vals[499] + 1}
	for _, key := range probes {
		want := 0
		for want < len(vals) && vals[want] < key {
			want++
		}
		if got := f.Search(key); got != want {
			t.Fatalf("Search(%d)=%d want %d", key, got, want)
		}
	}
}

func TestFORArrayConstant(t *testing.T) {
	vals := []uint64{42, 42, 42}
	f := NewFORArray(vals)
	if f.Bytes() != 8 { // width 0: only the frame
		t.Fatalf("constant FOR should cost 8 bytes, got %d", f.Bytes())
	}
	for i := range vals {
		if f.Get(i) != 42 {
			t.Fatalf("Get(%d)=%d", i, f.Get(i))
		}
	}
}

func TestFORArrayEmpty(t *testing.T) {
	f := NewFORArray(nil)
	if f.Len() != 0 || f.Search(5) != 0 {
		t.Fatal("empty FOR misbehaves")
	}
}

func TestFORArrayQuickUnsorted(t *testing.T) {
	f := func(vals []uint64) bool {
		fa := NewFORArray(vals)
		got := fa.AppendTo(nil)
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedDecodeRangeAgainstGet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const add = 0x5a5a_0000_0000_0001
	// Every width: the unaligned-load kernel has one unrolled case per
	// w&7 and hands widths above 56 to the portable kernel, so boundary
	// widths all deserve a pass. Lengths around 8 and 64 put the last
	// elements inside and just past a group and a word.
	for width := uint8(0); width <= 64; width++ {
		for _, n := range []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 179, 256, 257} {
			vals := make([]uint64, n)
			for i := range vals {
				if width == 64 {
					vals[i] = rng.Uint64()
				} else if width > 0 {
					vals[i] = rng.Uint64() & (1<<width - 1)
				}
			}
			p := NewPackedArray(vals, width)
			dst := make([]uint64, n)
			// Full range, empty windows and random windows, then every
			// head length (lo mod 8) against every end within 9 elements
			// of the array's last, where the kernel hands over to the
			// portable extract.
			ranges := [][2]int{{0, n}, {0, 0}, {n, n}}
			for trial := 0; trial < 20 && n > 0; trial++ {
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n+1-lo)
				ranges = append(ranges, [2]int{lo, hi})
			}
			for lo := 0; lo < min(n, 17); lo++ {
				for hi := max(lo, n-9); hi <= n; hi++ {
					ranges = append(ranges, [2]int{lo, hi})
				}
			}
			check := func(kernel string, lo, hi int, add uint64) {
				t.Helper()
				for i := lo; i < hi; i++ {
					if want := p.Get(i) + add; dst[i-lo] != want {
						t.Fatalf("%s w=%d n=%d [%d,%d): elem %d = %#x, Get+add = %#x",
							kernel, width, n, lo, hi, i, dst[i-lo], want)
					}
				}
			}
			for _, r := range ranges {
				lo, hi := r[0], r[1]
				if got := p.DecodeRange(lo, hi, dst); got != hi-lo {
					t.Fatalf("w=%d n=%d [%d,%d): count %d", width, n, lo, hi, got)
				}
				check("DecodeRange", lo, hi, 0)
				p.DecodeRangeAdd(lo, hi, dst, add)
				check("DecodeRangeAdd", lo, hi, add)
				if width > 0 {
					p.decodePortable(lo, dst[:hi-lo], add)
					check("decodePortable", lo, hi, add)
				}
			}
		}
	}
}

func TestPackedDecodeRangePanicsOutOfBounds(t *testing.T) {
	p := NewPackedArray([]uint64{1, 2, 3}, 2)
	for _, r := range [][2]int{{-1, 2}, {0, 4}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("DecodeRange(%d,%d) did not panic", r[0], r[1])
				}
			}()
			p.DecodeRange(r[0], r[1], make([]uint64, 8))
		}()
	}
}

func TestFORDecodeRangeAgainstGet(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, base := range []uint64{0, 1, 1 << 40, ^uint64(0) - 1<<20} {
		vals := make([]uint64, 300)
		for i := range vals {
			vals[i] = base + uint64(rng.Intn(1<<20))
		}
		f := NewFORArray(vals)
		dst := make([]uint64, len(vals))
		for trial := 0; trial < 50; trial++ {
			lo := rng.Intn(len(vals) + 1)
			hi := lo + rng.Intn(len(vals)+1-lo)
			f.DecodeRange(lo, hi, dst)
			for i := lo; i < hi; i++ {
				if dst[i-lo] != f.Get(i) {
					t.Fatalf("base=%d [%d,%d): elem %d = %d, Get = %d", base, lo, hi, i, dst[i-lo], f.Get(i))
				}
			}
		}
	}
}

func TestAppendToUsesBulkDecode(t *testing.T) {
	// AppendTo must round-trip through DecodeRange, preserving both the
	// existing prefix and capacity reuse.
	vals := []uint64{9, 4, 7, 1, 100, 3}
	f := NewFORArray(vals)
	dst := append(make([]uint64, 0, 32), 42)
	out := f.AppendTo(dst)
	if out[0] != 42 || len(out) != 7 {
		t.Fatalf("prefix lost: %v", out)
	}
	for i, v := range vals {
		if out[i+1] != v {
			t.Fatalf("elem %d = %d, want %d", i, out[i+1], v)
		}
	}
	if &out[0] != &dst[0] {
		t.Fatalf("AppendTo reallocated despite sufficient capacity")
	}
}

// BenchmarkDecodeRangeAdd decodes one 179-element array (a Succinct leaf's
// size) per op at widths inside each w&7 case (12, 28, 50) and past the
// unaligned-load kernel's limit (60), warm in L1.
func BenchmarkDecodeRangeAdd(b *testing.B) {
	const n = 179
	for _, width := range []uint8{12, 28, 50, 60} {
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(width)))
			vals := make([]uint64, n)
			for i := range vals {
				vals[i] = rng.Uint64() & (1<<width - 1)
			}
			p := NewPackedArray(vals, width)
			dst := make([]uint64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.DecodeRangeAdd(0, n, dst, 7)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}
