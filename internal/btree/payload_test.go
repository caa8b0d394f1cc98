package btree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ahi/internal/core"
)

func sortedPairs(n int, seed int64) ([]uint64, []uint64) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]uint64, n)
	vals := make([]uint64, n)
	cur := uint64(rng.Intn(1000))
	for i := range keys {
		cur += uint64(rng.Intn(5000) + 1)
		keys[i] = cur
		vals[i] = uint64(rng.Intn(1 << 28)) // TID-like, FOR-compressible
	}
	return keys, vals
}

func allEncodings() []core.Encoding {
	return []core.Encoding{EncSuccinct, EncPacked, EncGapped}
}

func TestPayloadRoundTrip(t *testing.T) {
	keys, vals := sortedPairs(179, 1) // ~70% of LeafCap
	for _, enc := range allEncodings() {
		p := encodePayload(enc, keys, vals)
		if p.encoding() != enc {
			t.Fatalf("%s: wrong encoding", EncodingName(enc))
		}
		if p.count() != len(keys) {
			t.Fatalf("%s: count=%d", EncodingName(enc), p.count())
		}
		for i := range keys {
			if p.keyAt(i) != keys[i] || p.valAt(i) != vals[i] {
				t.Fatalf("%s: mismatch at %d", EncodingName(enc), i)
			}
		}
		gotK, gotV := p.appendAll(nil, nil)
		for i := range keys {
			if gotK[i] != keys[i] || gotV[i] != vals[i] {
				t.Fatalf("%s: appendAll mismatch at %d", EncodingName(enc), i)
			}
		}
	}
}

func TestPayloadSearch(t *testing.T) {
	keys, vals := sortedPairs(100, 2)
	for _, enc := range allEncodings() {
		p := encodePayload(enc, keys, vals)
		for i, k := range keys {
			pos, found := p.search(k)
			if !found || pos != i {
				t.Fatalf("%s: search(%d) = (%d,%v) want (%d,true)", EncodingName(enc), k, pos, found, i)
			}
			pos, found = p.search(k + 1) // gaps guaranteed > 1
			if found {
				t.Fatalf("%s: phantom key %d", EncodingName(enc), k+1)
			}
			if pos != i+1 {
				t.Fatalf("%s: search(%d)=%d want %d", EncodingName(enc), k+1, pos, i+1)
			}
		}
		if pos, found := p.search(0); found || pos != 0 {
			t.Fatalf("%s: search below min", EncodingName(enc))
		}
	}
}

func TestPayloadSizeOrdering(t *testing.T) {
	// Table 1's central claim: succinct < packed < gapped for a 70%-full
	// leaf of clustered keys.
	keys, vals := sortedPairs(179, 3)
	s := encodePayload(EncSuccinct, keys, vals).bytes()
	p := encodePayload(EncPacked, keys, vals).bytes()
	g := encodePayload(EncGapped, keys, vals).bytes()
	if !(s < p && p < g) {
		t.Fatalf("size ordering violated: succinct=%d packed=%d gapped=%d", s, p, g)
	}
	if g != LeafCap*2*8 {
		t.Fatalf("gapped should cost full slots: %d", g)
	}
	if p != 179*2*8 {
		t.Fatalf("packed should cost exactly its entries: %d", p)
	}
	// Succinct on clustered keys should save well beyond packed.
	if float64(s) > 0.8*float64(p) {
		t.Fatalf("succinct compression too weak: %d vs packed %d", s, p)
	}
}

func TestPayloadMutations(t *testing.T) {
	for _, enc := range allEncodings() {
		keys, vals := sortedPairs(50, 4)
		p := encodePayload(enc, keys, vals)
		// Insert a fresh key.
		pos, _ := p.search(keys[10] + 1)
		p2 := insertAt(p, enc, pos, keys[10]+1, 999)
		if pos, found := p2.search(keys[10] + 1); !found || p2.valAt(pos) != 999 {
			t.Fatalf("%s: insert lost", EncodingName(enc))
		}
		if p2.count() != 51 || p.count() != 50 {
			t.Fatalf("%s: counts after insert %d / %d", EncodingName(enc), p2.count(), p.count())
		}
		// Update by position: in place on Gapped and Packed, into a new
		// image that leaves its donor alone on Succinct.
		pos, _ = p2.search(keys[0])
		p3 := p2
		if f := flatOf(p2); f != nil {
			f.storeValue(pos, 12345)
		} else {
			p3 = p2.(*succinct).withValue(pos, 12345)
			if p2.valAt(pos) != vals[0] {
				t.Fatalf("%s: update leaked into the donor", EncodingName(enc))
			}
		}
		if p3.valAt(pos) != 12345 {
			t.Fatalf("%s: update lost", EncodingName(enc))
		}
		// Remove.
		pos, _ = p3.search(keys[10] + 1)
		p4 := removeAt(p3, pos)
		if _, found := p4.search(keys[10] + 1); found {
			t.Fatalf("%s: remove failed", EncodingName(enc))
		}
		if p4.count() != 50 || p3.count() != 51 {
			t.Fatalf("%s: counts after remove %d / %d", EncodingName(enc), p4.count(), p3.count())
		}
	}
}

func TestPayloadInsertDuplicateOverwrites(t *testing.T) {
	for _, enc := range allEncodings() {
		keys, vals := sortedPairs(20, 5)
		tr := BulkLoad(Config{DefaultEncoding: enc}, keys, vals)
		if tr.Insert(keys[5], 777) {
			t.Fatalf("%s: duplicate insert reported a new key", EncodingName(enc))
		}
		if tr.Len() != 20 {
			t.Fatalf("%s: duplicate insert changed count", EncodingName(enc))
		}
		if v, ok := tr.Lookup(keys[5]); !ok || v != 777 {
			t.Fatalf("%s: duplicate insert did not overwrite", EncodingName(enc))
		}
	}
}

func TestReencodeAllPairs(t *testing.T) {
	keys, vals := sortedPairs(64, 6)
	for _, from := range allEncodings() {
		for _, to := range allEncodings() {
			p := encodePayload(from, keys, vals)
			q := reencode(p, to)
			if q.encoding() != to {
				t.Fatalf("%s->%s: wrong encoding", EncodingName(from), EncodingName(to))
			}
			if from == to && q != p {
				t.Fatalf("%s->%s: same-encoding reencode must be identity", EncodingName(from), EncodingName(to))
			}
			for i := range keys {
				if q.keyAt(i) != keys[i] || q.valAt(i) != vals[i] {
					t.Fatalf("%s->%s: data lost at %d", EncodingName(from), EncodingName(to), i)
				}
			}
		}
	}
}

func TestEmptyPayloads(t *testing.T) {
	for _, enc := range allEncodings() {
		p := encodePayload(enc, nil, nil)
		if p.count() != 0 {
			t.Fatalf("%s: empty count", EncodingName(enc))
		}
		if pos, found := p.search(42); found || pos != 0 {
			t.Fatalf("%s: empty search", EncodingName(enc))
		}
	}
}

func TestEncodingName(t *testing.T) {
	if EncodingName(EncSuccinct) != "succinct" || EncodingName(EncGapped) != "gapped" ||
		EncodingName(EncPacked) != "packed" || EncodingName(core.Encoding(9)) != "unknown" {
		t.Fatal("names wrong")
	}
}

func TestPayloadQuickEquivalence(t *testing.T) {
	// All three encodings must agree with a reference map after a mixed
	// random build.
	fn := func(raw []uint16) bool {
		seen := map[uint64]uint64{}
		var keys, vals []uint64
		for i, r := range raw {
			k := uint64(r)
			if _, dup := seen[k]; !dup && len(seen) < LeafCap {
				seen[k] = uint64(i)
			}
		}
		for k := uint64(0); k < 1<<16; k++ {
			if v, ok := seen[k]; ok {
				keys = append(keys, k)
				vals = append(vals, v)
			}
		}
		for _, enc := range allEncodings() {
			p := encodePayload(enc, keys, vals)
			for k, v := range seen {
				pos, found := p.search(k)
				if !found || p.valAt(pos) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
