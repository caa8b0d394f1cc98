package core

import (
	"testing"
)

// These tests pin the ChargedBytes budget accounting: auxiliary read-path
// bytes (the result cache) must shrink the adaptation headroom exactly as
// if they were index bytes, in both the online loop and offline training.

// TestChargedBytesShrinksHeadroom drives the budget to its edge twice —
// once with nothing charged, once with a charge eating most of the
// expansion headroom — and checks the manager expands proportionally less
// and that env.BudgetRemaining reflects the charge byte-for-byte.
func TestChargedBytesShrinksHeadroom(t *testing.T) {
	const n = 500
	run := func(charge int64) (expanded int, remaining []int64) {
		ix := newMockIndex(n)
		cfg := ix.config(TLS)
		budget := int64(n)*10 + 40*100 // floor + room for ~40 expansions
		cfg.MemoryBudget = budget
		if charge > 0 {
			cfg.ChargedBytes = func() int64 { return charge }
		}
		inner := cfg.Heuristic
		cfg.Heuristic = func(id int, c *struct{}, st *Stats, env Env) Action {
			remaining = append(remaining, env.BudgetRemaining)
			want := budget - ix.usedMemory() - charge
			// UsedMemory moves as earlier candidates in the same phase
			// migrate, so allow one expanded unit of drift.
			if d := env.BudgetRemaining - want; d < -100 || d > 100 {
				t.Errorf("BudgetRemaining=%d want %d (charge %d)", env.BudgetRemaining, want, charge)
			}
			return inner(id, c, st, env)
		}
		m := New(cfg)
		driveSkewed(m, n, 1_000_000, 2)
		if used := ix.usedMemory() + charge; used > budget+100 {
			t.Fatalf("used+charged=%d exceeds budget %d (charge %d)", used, budget, charge)
		}
		return ix.expandedCount(), remaining
	}

	free, rem := run(0)
	if len(rem) == 0 {
		t.Fatal("heuristic never consulted")
	}
	charged, _ := run(30 * 100) // charge 30 of the 40 expansion slots
	if free == 0 {
		t.Fatal("uncharged run expanded nothing")
	}
	if charged >= free {
		t.Fatalf("charge did not shrink expansion: charged=%d free=%d", charged, free)
	}
	if charged > 10+2 { // ~10 slots left, one unit of slack
		t.Fatalf("charged run overspent: expanded=%d want <=12", charged)
	}
}

// TestChargedBytesAtEdge pins the degenerate cases: a charge consuming the
// whole budget leaves no headroom (nothing expands), and budgetK clamps at
// zero instead of going negative.
func TestChargedBytesAtEdge(t *testing.T) {
	const n = 200
	ix := newMockIndex(n)
	cfg := ix.config(TLS)
	budget := int64(n)*10 + 20*100
	cfg.MemoryBudget = budget
	cfg.ChargedBytes = func() int64 { return budget } // everything charged
	m := New(cfg)
	driveSkewed(m, n, 500_000, 4)
	if got := ix.expansion; got != 0 {
		t.Fatalf("expanded %d units with zero headroom", got)
	}
}

// TestChargedBytesTrainOffline checks offline training stops admitting
// expansions once used+charged memory reaches the budget.
func TestChargedBytesTrainOffline(t *testing.T) {
	const n = 100
	train := func(charge int64) int {
		ix := newMockIndex(n)
		cfg := ix.config(TLS)
		cfg.MemoryBudget = int64(n)*10 + 10*100 // room for 10 expansions
		if charge > 0 {
			cfg.ChargedBytes = func() int64 { return charge }
		}
		m := New(cfg)
		freqs := make([]IDFreq[int, struct{}], n)
		for i := range freqs {
			freqs[i] = IDFreq[int, struct{}]{ID: i, Freq: uint64(n - i)}
		}
		return m.TrainOffline(freqs)
	}
	free := train(0)
	if free == 0 || free > 10 {
		t.Fatalf("uncharged TrainOffline migrated %d, want ~10", free)
	}
	charged := train(5 * 100)
	if charged >= free {
		t.Fatalf("charge did not shrink offline training: %d vs %d", charged, free)
	}
}
