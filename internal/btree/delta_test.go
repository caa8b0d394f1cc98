package btree

import (
	"fmt"
	"slices"
	"testing"

	"ahi/internal/core"
)

// Tests of the delta constructors (payload.go: succinct.withValue,
// insertAt, removeAt) and of the write paths built on them. The two
// properties every case checks: the new image equals, element by element,
// a fresh encode of the edited decoded arrays, and the donor image is
// bit-identical to a snapshot taken before the call. Gapped and Packed
// overwrites store in place instead (inplace_test.go).

// imageBits renders every field of a payload, including the packed words
// of a Succinct image (fmt walks unexported fields), so two equal strings
// mean a bit-identical image.
func imageBits(p payload) string { return fmt.Sprintf("%#v", p) }

// checkImage compares got with a fresh encode of (keys, vals).
func checkImage(t *testing.T, what string, got payload, enc core.Encoding, keys, vals []uint64) {
	t.Helper()
	if got.encoding() != enc || got.count() != len(keys) {
		t.Fatalf("%s: got %s with %d pairs, want %s with %d",
			what, EncodingName(got.encoding()), got.count(), EncodingName(enc), len(keys))
	}
	ref := encodePayload(enc, keys, vals)
	ks, vs := make([]uint64, len(keys)), make([]uint64, len(keys))
	got.decodeRange(0, len(keys), ks, vs)
	for i := range keys {
		if got.keyAt(i) != ref.keyAt(i) || got.valAt(i) != ref.valAt(i) || ks[i] != keys[i] || vs[i] != vals[i] {
			t.Fatalf("%s: pair %d is (%d,%d) / decoded (%d,%d), want (%d,%d)",
				what, i, got.keyAt(i), got.valAt(i), ks[i], vs[i], keys[i], vals[i])
		}
		if pos, ok := got.search(keys[i]); !ok || pos != i {
			t.Fatalf("%s: search(%d) = (%d,%v), want (%d,true)", what, keys[i], pos, ok, i)
		}
	}
}

// deltaSizes are the leaf sizes under test; deltaIdx the edited positions.
var deltaSizes = []int{1, 2, 179, LeafCap - 1, LeafCap}

func deltaIdx(n int) []int {
	return slices.Compact([]int{0, n / 2, n - 1})
}

// TestWithValue covers the one overwrite that derives a new image: the
// Succinct one, whose bit-packed values cannot be stored in place.
func TestWithValue(t *testing.T) {
	for _, enc := range []core.Encoding{EncSuccinct} {
		for _, n := range deltaSizes {
			keys, vals := sortedPairs(n, int64(n))
			lo, hi := slices.Min(vals), slices.Max(vals)
			// Equal to the frame minimum and maximum, inside, below the
			// frame, above the width, and the extremes of the domain.
			for _, v := range []uint64{lo, hi, (lo + hi) / 2, lo - 1, hi<<1 + 1, 0, ^uint64(0)} {
				for _, i := range deltaIdx(n) {
					what := fmt.Sprintf("%s n=%d withValue(%d, %d)", EncodingName(enc), n, i, v)
					donor := newSuccinct(keys, vals)
					snap := imageBits(donor)
					got := donor.withValue(i, v)
					want := slices.Clone(vals)
					want[i] = v
					checkImage(t, what, got, enc, keys, want)
					if imageBits(donor) != snap {
						t.Fatalf("%s: donor image changed", what)
					}
					if v >= lo && v <= hi && got.bytes() != donor.bytes() {
						t.Fatalf("%s: in-frame overwrite changed bytes %d -> %d", what, donor.bytes(), got.bytes())
					}
				}
			}
		}
	}
}

func TestInsertAtRemoveAt(t *testing.T) {
	for _, enc := range allEncodings() {
		for _, n := range deltaSizes {
			keys, vals := sortedPairs(n, int64(n)+100)
			donor := encodePayload(enc, keys, vals)
			snap := imageBits(donor)

			for _, i := range deltaIdx(n) {
				what := fmt.Sprintf("%s n=%d removeAt(%d)", EncodingName(enc), n, i)
				checkImage(t, what, removeAt(donor, i), enc,
					slices.Delete(slices.Clone(keys), i, i+1), slices.Delete(slices.Clone(vals), i, i+1))
			}
			if n < LeafCap { // a full leaf splits instead: TestSplitAtLeafCap
				// Before the first key, between two keys, after the last.
				for _, pos := range slices.Compact([]int{0, n / 2, n}) {
					k := keys[0] - 1
					if pos > 0 {
						k = keys[pos-1] + 1
						if pos < n && keys[pos] == k {
							continue // neighbours one apart leave no room for a new key
						}
					}
					for _, target := range []core.Encoding{enc, EncGapped} {
						what := fmt.Sprintf("%s->%s n=%d insertAt(%d)", EncodingName(enc), EncodingName(target), n, pos)
						checkImage(t, what, insertAt(donor, target, pos, k, 4242), target,
							slices.Insert(slices.Clone(keys), pos, k), slices.Insert(slices.Clone(vals), pos, 4242))
					}
				}
			}
			if imageBits(donor) != snap {
				t.Fatalf("%s n=%d: donor image changed by insertAt/removeAt", EncodingName(enc), n)
			}
		}
	}
}

// TestRemoveAtSuccinctToEmpty deletes every pair of a full Succinct leaf,
// one at a time in a scattered order that takes the first and the last
// pair along the way, each result the donor of the next. Every step keeps
// the frames and widths of the full leaf, so the later images are
// non-canonical; each must still read like a fresh encode, leave its donor
// alone, and come back canonical from a re-encode to Gapped and back.
func TestRemoveAtSuccinctToEmpty(t *testing.T) {
	keys, vals := sortedPairs(LeafCap, 44)
	p := payload(newSuccinct(keys, vals))
	for x := uint64(0x2545f4914f6cdd1d); len(keys) > 0; {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i := int(x % uint64(len(keys)))
		switch len(keys) {
		case LeafCap - 1:
			i = 0
		case LeafCap - 2:
			i = len(keys) - 1
		}
		what := fmt.Sprintf("removeAt(%d) of %d", i, len(keys))
		gone := keys[i]
		snap := imageBits(p)
		next := removeAt(p, i)
		if imageBits(p) != snap {
			t.Fatalf("%s: donor image changed", what)
		}
		keys, vals = slices.Delete(keys, i, i+1), slices.Delete(vals, i, i+1)
		checkImage(t, what, next, EncSuccinct, keys, vals)
		if pos, ok := next.search(gone); ok || pos != i {
			t.Fatalf("%s: search(removed %d) = (%d,%v), want (%d,false)", what, gone, pos, ok, i)
		}
		if next.bytes() > p.bytes() {
			t.Fatalf("%s: bytes grew %d -> %d", what, p.bytes(), next.bytes())
		}
		back := reencode(reencode(next, EncGapped), EncSuccinct)
		if got, want := imageBits(back), imageBits(newSuccinct(keys, vals)); got != want {
			t.Fatalf("%s: Gapped round trip is not canonical:\n got %s\nwant %s", what, got, want)
		}
		p = next
	}
}

// TestSplitAtLeafCap writes into a full single-leaf tree of every encoding
// at the first, a middle and the last position, with and without eager
// expansion, holding the pre-split image like a reader would. The split
// leaves that image bit-identical; the overwrite before it changes only
// the overwritten value (in place on Gapped and Packed).
func TestSplitAtLeafCap(t *testing.T) {
	for _, enc := range allEncodings() {
		for _, expand := range []bool{false, true} {
			for _, where := range []string{"first", "middle", "last"} {
				keys := make([]uint64, LeafCap)
				vals := make([]uint64, LeafCap)
				for i := range keys {
					keys[i] = uint64(i+1) * 10
					vals[i] = uint64(i) + 7
				}
				tr := BulkLoad(Config{DefaultEncoding: enc, Occupancy: 1, ExpandOnInsert: expand}, keys, vals)
				_, leaf, _ := tr.lookupLeaf(keys[0], nil)
				held := leaf.box.Load()
				if held.p.count() != LeafCap {
					t.Fatalf("bulk load made a leaf of %d keys, want %d", held.p.count(), LeafCap)
				}
				k := map[string]uint64{"first": 1, "middle": keys[LeafCap/2] + 5, "last": keys[LeafCap-1] + 5}[where]
				what := fmt.Sprintf("%s expand=%v split by %s key", EncodingName(enc), expand, where)

				// An overwrite of a full leaf does not split it.
				if tr.Insert(keys[3], 99) || leaf.box.Load().next != nil {
					t.Fatalf("%s: overwrite of a full leaf split it or reported a new key", what)
				}
				vals[3] = 99
				if cur := leaf.box.Load(); cur == held {
					// In place: the keys and every other value are unchanged.
					for i := range keys {
						if held.p.keyAt(i) != keys[i] || held.p.valAt(i) != vals[i] {
							t.Fatalf("%s: overwrite left pair %d as (%d,%d), want (%d,%d)",
								what, i, held.p.keyAt(i), held.p.valAt(i), keys[i], vals[i])
						}
					}
				} else {
					held = cur
				}
				snap := imageBits(held.p)
				if !tr.Insert(k, 4242) {
					t.Fatalf("%s: insert reported an overwrite", what)
				}
				if imageBits(held.p) != snap {
					t.Fatalf("%s: the image a reader held changed", what)
				}
				left := leaf.box.Load()
				if left.next == nil || left.p.count()+left.next.box.Load().p.count() != LeafCap+1 {
					t.Fatalf("%s: leaf did not split into two holding %d pairs", what, LeafCap+1)
				}
				wantEnc := enc
				if expand {
					wantEnc = EncGapped
				}
				if left.p.encoding() != wantEnc || left.next.Encoding() != wantEnc {
					t.Fatalf("%s: halves are %s/%s, want %s", what,
						EncodingName(left.p.encoding()), EncodingName(left.next.Encoding()), EncodingName(wantEnc))
				}
				if err := tr.Validate(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if v, ok := tr.Lookup(k); !ok || v != 4242 {
					t.Fatalf("%s: new key reads (%d,%v)", what, v, ok)
				}
				for i, key := range keys {
					if v, ok := tr.Lookup(key); !ok || v != vals[i] {
						t.Fatalf("%s: key %d reads (%d,%v), want %d", what, key, v, ok, vals[i])
					}
				}
			}
		}
	}
}

// TestDeleteTrackedReturnsLeaf: the leaf a delete reports is the one that
// held (or would hold) the key, also after splits moved the key right.
func TestDeleteTrackedReturnsLeaf(t *testing.T) {
	tr := New(Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true})
	for i := uint64(0); i < 5000; i++ {
		tr.Insert(i*3, i)
	}
	for _, k := range []uint64{0, 3 * 2500, 3 * 4999, 7 /* absent */} {
		_, want, _ := tr.lookupLeaf(k, nil)
		present := k%3 == 0
		if ok, leaf := tr.deleteTracked(k, nil); ok != present || leaf != want {
			t.Fatalf("deleteTracked(%d) = (%v, leaf %d), want (%v, leaf %d)", k, ok, leaf.ID(), present, want.ID())
		}
	}
}

// TestInsertBatchRunOfOneKeepsEncoding: a batch of scattered overwrites
// is a sequence of single-key writes, which — like Insert — leave the
// encoding of the leaf alone; only a new key expands it.
func TestInsertBatchRunOfOneKeepsEncoding(t *testing.T) {
	keys, vals := sortedPairs(20000, 3)
	tr := BulkLoad(Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true}, keys, vals)
	bk := make([]uint64, 16)
	bv := make([]uint64, 16)
	ins := make([]bool, 16)
	for i := range bk {
		bk[i] = keys[i*1000+5] // one key per leaf
		bv[i] = uint64(i)
	}
	tr.InsertBatch(bk, bv, ins)
	if _, _, g := tr.LeafCounts(); g != 0 || tr.Expansions() != 0 || slices.Contains(ins, true) {
		t.Fatalf("overwrite batch expanded %d leaves (inserted=%v)", g, ins)
	}
	for i := range bk {
		bk[i]++
	}
	tr.InsertBatch(bk, bv, ins)
	if _, _, g := tr.LeafCounts(); g != 16 || slices.Contains(ins, false) {
		t.Fatalf("insert batch expanded %d leaves, want 16 (inserted=%v)", g, ins)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}
