package btree

import (
	"encoding/binary"
	"testing"

	"ahi/internal/core"
)

// FuzzTreeAgainstModel feeds an arbitrary operation tape into a tree with
// encoding migrations interleaved and cross-checks every result against a
// map. Run with `go test -fuzz=FuzzTreeAgainstModel` for deep exploration;
// the seed corpus below runs on every `go test`.
func FuzzTreeAgainstModel(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{0, 0, 0, 0, 255, 255, 1, 1, 128, 64, 32, 16})
	f.Add([]byte{9, 1, 9, 2, 9, 3, 9, 4, 9, 5, 9, 6, 9, 7})
	f.Fuzz(func(t *testing.T, tape []byte) {
		tr := New(Config{DefaultEncoding: EncSuccinct, ExpandOnInsert: true})
		ref := map[uint64]uint64{}
		var lastLeafKey uint64
		for i := 0; i+2 < len(tape); i += 3 {
			op := tape[i] % 5
			k := uint64(binary.LittleEndian.Uint16(tape[i+1 : i+3]))
			switch op {
			case 0, 1: // insert
				v := uint64(tape[i]) + 1
				tr.Insert(k, v)
				ref[k] = v
				lastLeafKey = k
			case 2: // delete
				got := tr.Delete(k)
				_, want := ref[k]
				if got != want {
					t.Fatalf("Delete(%d)=%v want %v", k, got, want)
				}
				delete(ref, k)
			case 3: // lookup
				got, ok := tr.Lookup(k)
				want, wok := ref[k]
				if ok != wok || (ok && got != want) {
					t.Fatalf("Lookup(%d)=(%d,%v) want (%d,%v)", k, got, ok, want, wok)
				}
			case 4: // migrate the leaf holding the last inserted key
				_, leaf, _ := tr.lookupLeaf(lastLeafKey, nil)
				tr.MigrateLeaf(leaf, core.Encoding(tape[i]%3))
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("Len=%d want %d", tr.Len(), len(ref))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeRangePayloads checks the satellite-3 property: for every leaf
// encoding, decodeRange(lo, hi) returns exactly the pairs element-wise
// keyAt/valAt would, for arbitrary sorted content and arbitrary [lo, hi)
// windows — including empty windows and full-LeafCap payloads.
func FuzzDecodeRangePayloads(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(0), uint8(255))
	f.Add([]byte{0, 0, 255, 255}, uint8(3), uint8(3))
	f.Add([]byte{200, 100, 50, 25, 12, 6}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint8) {
		// Build a sorted, deduplicated key set (≤ LeafCap entries) from the
		// raw bytes; widths vary with the byte values so packed/succinct
		// exercise different bit widths.
		var keys, vals []uint64
		var prev uint64
		for i := 0; i+1 < len(raw) && len(keys) < LeafCap; i += 2 {
			step := uint64(binary.LittleEndian.Uint16(raw[i:i+2]))%1024 + 1
			prev += step
			keys = append(keys, prev)
			vals = append(vals, prev*3+1)
		}
		if len(keys) == 0 {
			return
		}
		n := len(keys)
		lo := int(a) % (n + 1)
		hi := int(b) % (n + 1)
		if lo > hi {
			lo, hi = hi, lo
		}
		ks := make([]uint64, n)
		vs := make([]uint64, n)
		for _, p := range []payload{
			payload(newGapped(keys, vals)),
			payload(newPacked(keys, vals)),
			payload(newSuccinct(keys, vals)),
		} {
			got := p.decodeRange(lo, hi, ks, vs)
			if got != hi-lo {
				t.Fatalf("%T decodeRange(%d,%d) returned %d, want %d", p, lo, hi, got, hi-lo)
			}
			for j := 0; j < got; j++ {
				if ks[j] != p.keyAt(lo+j) || vs[j] != p.valAt(lo+j) {
					t.Fatalf("%T element %d: decodeRange (%d,%d) vs keyAt/valAt (%d,%d)",
						p, lo+j, ks[j], vs[j], p.keyAt(lo+j), p.valAt(lo+j))
				}
			}
			// Full-range decode must reproduce the input exactly.
			p.decodeRange(0, n, ks, vs)
			for j := range keys {
				if ks[j] != keys[j] || vs[j] != vals[j] {
					t.Fatalf("%T full decode element %d: got (%d,%d) want (%d,%d)",
						p, j, ks[j], vs[j], keys[j], vals[j])
				}
			}
		}
	})
}
