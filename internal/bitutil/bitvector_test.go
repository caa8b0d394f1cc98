package bitutil

import (
	"math/rand"
	"testing"
)

// naiveBits mirrors a BitVector for cross-checking.
type naiveBits []bool

func (n naiveBits) rank1(i int) int {
	if i > len(n) {
		i = len(n)
	}
	r := 0
	for j := 0; j < i; j++ {
		if n[j] {
			r++
		}
	}
	return r
}

func (n naiveBits) select1(k int) int {
	seen := 0
	for i, b := range n {
		if b {
			seen++
			if seen == k {
				return i
			}
		}
	}
	return -1
}

func (n naiveBits) select0(k int) int {
	seen := 0
	for i, b := range n {
		if !b {
			seen++
			if seen == k {
				return i
			}
		}
	}
	return -1
}

func buildRandom(t *testing.T, n int, density float64, seed int64) (*BitVector, naiveBits) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var b Builder
	ref := make(naiveBits, n)
	for i := 0; i < n; i++ {
		bit := rng.Float64() < density
		ref[i] = bit
		b.Append(bit)
	}
	return b.Build(), ref
}

func TestBitVectorRankSelectAgainstNaive(t *testing.T) {
	for _, tc := range []struct {
		n       int
		density float64
	}{
		{1, 1}, {63, 0.5}, {64, 0.5}, {65, 0.5}, {1000, 0.02},
		{5000, 0.5}, {5000, 0.95}, {4096, 0.25}, {513, 1.0}, {777, 0.0},
	} {
		v, ref := buildRandom(t, tc.n, tc.density, int64(tc.n)*31+int64(tc.density*100))
		if v.Len() != tc.n {
			t.Fatalf("Len=%d want %d", v.Len(), tc.n)
		}
		if v.Ones() != ref.rank1(tc.n) {
			t.Fatalf("n=%d d=%v: Ones=%d want %d", tc.n, tc.density, v.Ones(), ref.rank1(tc.n))
		}
		for i := 0; i <= tc.n; i++ {
			if got, want := v.Rank1(i), ref.rank1(i); got != want {
				t.Fatalf("n=%d d=%v: Rank1(%d)=%d want %d", tc.n, tc.density, i, got, want)
			}
		}
		for k := 1; k <= v.Ones(); k++ {
			if got, want := v.Select1(k), ref.select1(k); got != want {
				t.Fatalf("n=%d d=%v: Select1(%d)=%d want %d", tc.n, tc.density, k, got, want)
			}
		}
		if v.Select1(0) != -1 || v.Select1(v.Ones()+1) != -1 {
			t.Fatal("Select1 out-of-range should return -1")
		}
	}
}

func TestBitVectorSelect0AgainstNaive(t *testing.T) {
	for _, tc := range []struct {
		n       int
		density float64
	}{
		{1, 0}, {63, 0.5}, {64, 0.5}, {65, 0.5}, {1000, 0.98},
		{5000, 0.5}, {5000, 0.05}, {513, 0.0}, {777, 1.0}, {4099, 0.9},
	} {
		v, ref := buildRandom(t, tc.n, tc.density, int64(tc.n)*17+int64(tc.density*100))
		if v.Zeros() != tc.n-ref.rank1(tc.n) {
			t.Fatalf("n=%d d=%v: Zeros=%d want %d", tc.n, tc.density, v.Zeros(), tc.n-ref.rank1(tc.n))
		}
		for k := 1; k <= v.Zeros(); k++ {
			if got, want := v.Select0(k), ref.select0(k); got != want {
				t.Fatalf("n=%d d=%v: Select0(%d)=%d want %d", tc.n, tc.density, k, got, want)
			}
		}
		if v.Select0(0) != -1 || v.Select0(v.Zeros()+1) != -1 {
			t.Fatal("Select0 out-of-range should return -1")
		}
	}
}

func TestSelectEdgeCases(t *testing.T) {
	// Empty vector: every select is out of range.
	empty := new(Builder).Build()
	if empty.Select1(1) != -1 || empty.Select0(1) != -1 || empty.Select1(0) != -1 {
		t.Fatal("empty vector selects should return -1")
	}
	if empty.Rank1(0) != 0 || empty.Rank0(10) != 0 {
		t.Fatal("empty vector ranks should be 0")
	}

	// All ones: Select1(k) == k-1 across sample boundaries; no zeros.
	var ab Builder
	ab.AppendN(true, 3*selectSample+7)
	allOnes := ab.Build()
	for k := 1; k <= allOnes.Ones(); k++ {
		if got := allOnes.Select1(k); got != k-1 {
			t.Fatalf("all-ones Select1(%d)=%d want %d", k, got, k-1)
		}
	}
	if allOnes.Select0(1) != -1 {
		t.Fatal("all-ones Select0(1) should be -1")
	}

	// All zeros: mirror case.
	var zb Builder
	zb.AppendN(false, 2*selectSample+100)
	allZeros := zb.Build()
	for k := 1; k <= allZeros.Zeros(); k += 37 {
		if got := allZeros.Select0(k); got != k-1 {
			t.Fatalf("all-zeros Select0(%d)=%d want %d", k, got, k-1)
		}
	}
	if allZeros.Select1(1) != -1 {
		t.Fatal("all-zeros Select1(1) should be -1")
	}

	// Last bit set/unset: the final position must be reachable.
	var lb Builder
	lb.AppendN(false, 1000)
	lb.Append(true)
	last := lb.Build()
	if got := last.Select1(1); got != 1000 {
		t.Fatalf("last-bit Select1(1)=%d want 1000", got)
	}
	if got := last.Select0(1000); got != 999 {
		t.Fatalf("last-bit Select0(1000)=%d want 999", got)
	}

	var lz Builder
	lz.AppendN(true, 777)
	lz.Append(false)
	lastZero := lz.Build()
	if got := lastZero.Select0(1); got != 777 {
		t.Fatalf("Select0(1)=%d want 777", got)
	}

	// k out of range in both directions.
	v, _ := buildRandom(t, 4096, 0.5, 42)
	for _, k := range []int{-5, 0, v.Ones() + 1, v.Len() + 100} {
		if k >= 1 && k <= v.Ones() {
			continue
		}
		if v.Select1(k) != -1 {
			t.Fatalf("Select1(%d) should be -1", k)
		}
	}
	for _, k := range []int{-1, 0, v.Zeros() + 1} {
		if v.Select0(k) != -1 {
			t.Fatalf("Select0(%d) should be -1", k)
		}
	}
}

func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		w := rng.Uint64()
		if trial < 64 {
			w = 1 << uint(trial) // single-bit words hit every byte lane
		}
		k := 0
		for i := 0; i < 64; i++ {
			if w&(1<<uint(i)) != 0 {
				k++
				if got := selectInWord(w, k); got != i {
					t.Fatalf("selectInWord(%#x, %d)=%d want %d", w, k, got, i)
				}
			}
		}
	}
}

func TestBitVectorRankSelectInverse(t *testing.T) {
	v, _ := buildRandom(t, 20000, 0.3, 99)
	for k := 1; k <= v.Ones(); k += 7 {
		pos := v.Select1(k)
		if !v.Get(pos) {
			t.Fatalf("Select1(%d)=%d is not a set bit", k, pos)
		}
		if r := v.Rank1(pos + 1); r != k {
			t.Fatalf("Rank1(Select1(%d)+1)=%d", k, r)
		}
	}
}

func TestBitVectorRank0(t *testing.T) {
	v, ref := buildRandom(t, 3000, 0.4, 5)
	for i := 0; i <= 3000; i += 13 {
		want := min(i, 3000) - ref.rank1(i)
		if got := v.Rank0(i); got != want {
			t.Fatalf("Rank0(%d)=%d want %d", i, got, want)
		}
	}
}

func TestBitVectorNextPrevSet(t *testing.T) {
	v, ref := buildRandom(t, 2048, 0.1, 11)
	for i := -1; i <= 2048; i++ {
		wantNext := -1
		for j := max(i, 0); j < len(ref); j++ {
			if ref[j] {
				wantNext = j
				break
			}
		}
		if got := v.NextSet(i); got != wantNext {
			t.Fatalf("NextSet(%d)=%d want %d", i, got, wantNext)
		}
		wantPrev := -1
		for j := min(i, len(ref)-1); j >= 0; j-- {
			if ref[j] {
				wantPrev = j
				break
			}
		}
		if got := v.PrevSet(i); got != wantPrev {
			t.Fatalf("PrevSet(%d)=%d want %d", i, got, wantPrev)
		}
	}
}

func TestBuilderSetAndGet(t *testing.T) {
	var b Builder
	b.AppendN(false, 130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Builder Set/Get mismatch")
	}
	v := b.Build()
	if v.Ones() != 3 || v.Select1(2) != 64 {
		t.Fatalf("Ones=%d Select1(2)=%d", v.Ones(), v.Select1(2))
	}
}

func TestBuilderAppendWord(t *testing.T) {
	var b Builder
	b.AppendWord(0b1011, 4)
	v := b.Build()
	want := []bool{true, true, false, true}
	for i, w := range want {
		if v.Get(i) != w {
			t.Fatalf("bit %d = %v want %v", i, v.Get(i), w)
		}
	}
}

func BenchmarkBitVectorRank1(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var bl Builder
	for i := 0; i < 1<<20; i++ {
		bl.Append(rng.Intn(2) == 0)
	}
	v := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Rank1(int(uint(i) * 2654435761 % uint(v.Len())))
	}
}

func BenchmarkBitVectorSelect1(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var bl Builder
	for i := 0; i < 1<<20; i++ {
		bl.Append(rng.Intn(2) == 0)
	}
	v := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Select1(1 + int(uint(i)*2654435761%uint(v.Ones())))
	}
}

func BenchmarkBitVectorSelect1Sparse(b *testing.B) {
	// 2% density exercises the superblock fallback of the select probe.
	rng := rand.New(rand.NewSource(1))
	var bl Builder
	for i := 0; i < 1<<20; i++ {
		bl.Append(rng.Intn(50) == 0)
	}
	v := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Select1(1 + int(uint(i)*2654435761%uint(v.Ones())))
	}
}

func BenchmarkBitVectorSelect0(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var bl Builder
	for i := 0; i < 1<<20; i++ {
		bl.Append(rng.Intn(2) == 0)
	}
	v := bl.Build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = v.Select0(1 + int(uint(i)*2654435761%uint(v.Zeros())))
	}
}
