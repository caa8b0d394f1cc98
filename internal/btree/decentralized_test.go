package btree

import (
	"testing"

	"ahi/internal/workload"
)

func TestDecentralizedAdaptsToSkew(t *testing.T) {
	keys, vals := sortedPairs(50000, 31)
	base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	budget := base.Bytes() + 60*(LeafCap*16+leafHeaderBytes)
	d := NewDecentralized(Config{DefaultEncoding: EncSuccinct}, keys, vals, 50_000, budget)
	z := workload.NewZipf(len(keys), 1.2, 3)
	for i := 0; i < 1_000_000; i++ {
		j := z.Draw()
		if v, ok := d.Lookup(keys[j]); !ok || v != vals[j] {
			t.Fatalf("lookup lost %d", keys[j])
		}
	}
	if d.Adaptations() == 0 {
		t.Fatal("no sweeps ran")
	}
	_, leaf, _ := d.Tree.lookupLeaf(keys[0], nil)
	if leaf.Encoding() != EncGapped {
		t.Fatal("hottest leaf not expanded")
	}
	if _, _, g := d.Tree.LeafCounts(); g == 0 {
		t.Fatal("nothing expanded")
	}
	if d.Tree.Bytes() > budget+LeafCap*16 {
		t.Fatalf("budget blown: %d > %d", d.Tree.Bytes(), budget)
	}
	// The IU overhead exists for every leaf, accessed or not.
	sc, pc, gc := d.Tree.LeafCounts()
	if d.IUBytes() < (sc+pc+gc)*iuBytes {
		t.Fatalf("IU accounting too small: %d", d.IUBytes())
	}
}

func TestDecentralizedScanAndInsert(t *testing.T) {
	keys, vals := sortedPairs(20000, 32)
	d := NewDecentralized(Config{DefaultEncoding: EncSuccinct}, keys, vals, 10_000, 0)
	if !d.Insert(keys[5]+1, 42) {
		t.Fatal("insert failed")
	}
	if v, ok := d.Lookup(keys[5] + 1); !ok || v != 42 {
		t.Fatal("insert lost")
	}
	n := d.Scan(keys[0], 100, func(k, v uint64) bool { return true })
	if n != 100 {
		t.Fatalf("scan visited %d", n)
	}
	// Unbounded budget: repeated hot access expands.
	for i := 0; i < 100_000; i++ {
		d.Lookup(keys[7])
	}
	_, leaf, _ := d.Tree.lookupLeaf(keys[7], nil)
	if leaf.Encoding() != EncGapped {
		t.Fatal("hot leaf not expanded without budget")
	}
}

func TestDecentralizedPhaseShift(t *testing.T) {
	keys, vals := sortedPairs(30000, 33)
	base := BulkLoad(Config{DefaultEncoding: EncSuccinct}, keys, vals)
	budget := base.Bytes() + 30*(LeafCap*16+leafHeaderBytes)
	d := NewDecentralized(Config{DefaultEncoding: EncSuccinct}, keys, vals, 20_000, budget)
	for i := 0; i < 400_000; i++ {
		d.Lookup(keys[i%300])
	}
	_, hotA, _ := d.Tree.lookupLeaf(keys[0], nil)
	if hotA.Encoding() != EncGapped {
		t.Fatal("phase-1 leaf not expanded")
	}
	// Shift: counters age, the old range compacts.
	lo := len(keys) - 300
	for i := 0; i < 2_000_000; i++ {
		d.Lookup(keys[lo+i%300])
	}
	_, hotA, _ = d.Tree.lookupLeaf(keys[0], nil)
	if hotA.Encoding() == EncGapped {
		t.Fatal("stale expansion survived aging")
	}
	_, hotB, _ := d.Tree.lookupLeaf(keys[len(keys)-1], nil)
	if hotB.Encoding() != EncGapped {
		t.Fatal("new hot range not expanded")
	}
}
