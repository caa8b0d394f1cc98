package topk

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleSizeShape(t *testing.T) {
	n := 1_000_000
	// Shrinking epsilon must grow the sample roughly quadratically.
	s10 := SampleSize(n, 1000, 0.10, 0.05)
	s05 := SampleSize(n, 1000, 0.05, 0.05)
	s02 := SampleSize(n, 1000, 0.02, 0.05)
	if !(s02 > s05 && s05 > s10) {
		t.Fatalf("sample sizes not monotone in 1/eps: %d %d %d", s10, s05, s02)
	}
	ratio := float64(s05) / float64(s10)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("halving eps should ~quadruple |S|, got ratio %.2f", ratio)
	}
	// Larger k grows |S| mildly (log of k(n-k)).
	if SampleSize(n, 1000, 0.05, 0.05) <= SampleSize(n, 250, 0.05, 0.05)-1000 {
		t.Fatal("k growth direction wrong")
	}
}

func TestSampleSizeEdges(t *testing.T) {
	if SampleSize(0, 10, 0.05, 0.05) != 0 {
		t.Fatal("n=0 must yield 0")
	}
	if s := SampleSize(100, 1000, 0.05, 0.05); s <= 0 {
		t.Fatalf("k clamped to n should still be positive, got %d", s)
	}
	if s := SampleSize(100, -5, 0, 0); s <= 0 {
		t.Fatalf("defaults must kick in, got %d", s)
	}
}

func TestClassifierFindsExactTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const items = 5000
	freqs := make([]uint64, items)
	for i := range freqs {
		freqs[i] = uint64(rng.Intn(1_000_000))
	}
	const k = 100
	c := NewClassifier(k)
	for i, f := range freqs {
		c.Offer(Entry{Item: i, Priority: f})
	}
	hot := append([]Entry(nil), c.Hot()...)
	if len(hot) != k {
		t.Fatalf("got %d hot items, want %d", len(hot), k)
	}
	sorted := append([]uint64(nil), freqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	threshold := sorted[k-1]
	for _, e := range hot {
		if e.Priority < threshold {
			t.Fatalf("hot item %d has priority %d below threshold %d", e.Item, e.Priority, threshold)
		}
	}
	if c.Threshold() < threshold {
		t.Fatalf("Threshold()=%d want >= %d", c.Threshold(), threshold)
	}
}

func TestClassifierDisplacement(t *testing.T) {
	c := NewClassifier(2)
	if _, ev := c.Offer(Entry{1, 10}); ev {
		t.Fatal("no eviction while heap not full")
	}
	c.Offer(Entry{2, 20})
	// Lower-priority candidate bounces back.
	d, ev := c.Offer(Entry{3, 5})
	if !ev || d.Item != 3 {
		t.Fatalf("low candidate should bounce, got %+v %v", d, ev)
	}
	// Higher-priority candidate displaces the minimum.
	d, ev = c.Offer(Entry{4, 30})
	if !ev || d.Item != 1 {
		t.Fatalf("expected item 1 displaced, got %+v", d)
	}
	ins, rem := c.Stats()
	if ins != 3 || rem != 1 {
		t.Fatalf("stats inserts=%d removals=%d", ins, rem)
	}
}

func TestClassifierZeroK(t *testing.T) {
	c := NewClassifier(0)
	d, ev := c.Offer(Entry{9, 100})
	if !ev || d.Item != 9 || c.Len() != 0 {
		t.Fatal("k=0 classifier must reject everything")
	}
}

func TestClassifierReset(t *testing.T) {
	c := NewClassifier(3)
	c.Offer(Entry{1, 1})
	c.Reset(5)
	if c.Len() != 0 || c.K() != 5 {
		t.Fatal("Reset failed")
	}
}

func TestClassifierQuickMatchesSort(t *testing.T) {
	fn := func(priorities []uint16, kk uint8) bool {
		k := int(kk%32) + 1
		c := NewClassifier(k)
		for i, p := range priorities {
			c.Offer(Entry{Item: i, Priority: uint64(p)})
		}
		if len(priorities) <= k {
			return c.Len() == len(priorities)
		}
		sorted := make([]uint64, len(priorities))
		for i, p := range priorities {
			sorted[i] = uint64(p)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		// Sum of hot priorities must equal sum of true top-k priorities
		// (items are exchangeable on ties, sums are not).
		var wantSum, gotSum uint64
		for i := 0; i < k; i++ {
			wantSum += sorted[i]
		}
		for _, e := range c.Hot() {
			gotSum += e.Priority
		}
		return gotSum == wantSum
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetK(t *testing.T) {
	// 100 compressed @10B, 0 uncompressed @50B, budget 3000:
	// used = 1000, each expansion costs 40 -> k = 2000/40 = 50.
	if k := BudgetK(3000, 100, 10, 0, 50); k != 50 {
		t.Fatalf("k=%d want 50", k)
	}
	// Already 10 expanded: used = 90*10+10*50 = 1400, headroom 1600/40 = 40,
	// plus the 10 already expanded = 50.
	if k := BudgetK(3000, 90, 10, 10, 50); k != 50 {
		t.Fatalf("k=%d want 50", k)
	}
	// Budget below current usage clamps to the already-expanded count or 0.
	if k := BudgetK(100, 90, 10, 10, 50); k != 0 {
		t.Fatalf("k=%d want 0", k)
	}
	// Degenerate encoding sizes: everything may expand.
	if k := BudgetK(1, 3, 10, 4, 10); k != 7 {
		t.Fatalf("k=%d want 7", k)
	}
	// Clamp to total units.
	if k := BudgetK(1<<40, 5, 10, 5, 50); k != 10 {
		t.Fatalf("k=%d want 10", k)
	}
}

func BenchmarkClassifierOffer(b *testing.B) {
	c := NewClassifier(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Offer(Entry{Item: i, Priority: uint64(i) * 2654435761 % 1_000_000})
	}
}
