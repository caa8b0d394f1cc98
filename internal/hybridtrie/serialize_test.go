package hybridtrie

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ahi/internal/art"
	"ahi/internal/dataset"
	"ahi/internal/fst"
)

// buildSmallTrie builds a compact trie for the byte-level corruption
// sweeps (every offset of the stream gets its own decode attempt).
func buildSmallTrie(t *testing.T) *Trie {
	t.Helper()
	keys := u64keys(dataset.UserIDs(64, 61))
	vals := seqVals(len(keys))
	return Build(Config{CArt: 2, FST: fst.AutoDense()}, keys, vals)
}

func TestTrieSerializeRoundTrip(t *testing.T) {
	keys := dataset.UserIDs(30000, 61)
	bk := u64keys(keys)
	tr := Build(Config{CArt: 2, FST: fst.AutoDense()}, bk, seqVals(len(keys)))
	// Expand a couple of subtrees so the saved trie carries migrations.
	for _, idx := range []int{0, len(keys) / 2} {
		var bv boundaryVisit
		var prefix []byte
		tr.lookup(bk[idx], func(v boundaryVisit) {
			if v.handle.Kind() == 6 && prefix == nil {
				bv = v
				prefix = append([]byte{}, v.prefix...)
			}
		})
		if prefix != nil {
			tr.Expand(bv.handle, bv.parent, bv.label, prefix)
		}
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadTrie(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != tr.Len() || g.CArt() != tr.CArt() || g.Expanded() != tr.Expanded() {
		t.Fatal("metadata mismatch")
	}
	for i, k := range bk {
		if v, ok := g.Lookup(k); !ok || v != uint64(i) {
			t.Fatalf("key %x lost after load", k)
		}
	}
	// Scans and further migrations still work.
	n := g.Scan(nil, 100, func(k []byte, v uint64) bool { return true }, nil)
	if n != 100 {
		t.Fatalf("scan on loaded trie visited %d", n)
	}
	if err := g.Validate(bk[:1000]); err != nil {
		t.Fatal(err)
	}
}

func TestTrieSerializeRejectsCorrupt(t *testing.T) {
	tr := Build(Config{CArt: 1, FST: fst.AutoDense()},
		[][]byte{{1, 0}, {2, 0}}, []uint64{1, 2})
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	bad := append([]byte{}, good...)
	bad[0] ^= 0x10
	if _, err := ReadTrie(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// A version-1 stream: the nine header words without their CRC word.
	bad = append(append([]byte{}, good[:72]...), good[80:]...)
	binary.LittleEndian.PutUint64(bad[8:], 1)
	if _, err := ReadTrie(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 stream: err = %v, want ErrCorrupt", err)
	}
}

// TestTrieSerializeBitFlips flips one bit at every byte offset: header
// flips must surface hybridtrie.ErrCorrupt, flips inside the embedded
// streams the corresponding fst/art sentinel — nothing loads silently.
func TestTrieSerializeBitFlips(t *testing.T) {
	tr := buildSmallTrie(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadTrie(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
	bad := make([]byte, len(good))
	for off := 0; off < len(good); off++ {
		copy(bad, good)
		bad[off] ^= 1 << (off % 8)
		_, err := ReadTrie(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		}
		corrupt := errors.Is(err, ErrCorrupt) || errors.Is(err, fst.ErrCorrupt) || errors.Is(err, art.ErrCorrupt)
		if !corrupt {
			t.Fatalf("flip at offset %d: untyped error: %v", off, err)
		}
		if off < 80 && !errors.Is(err, ErrCorrupt) { // 9 header words + CRC word
			t.Fatalf("header flip at offset %d not hybridtrie.ErrCorrupt: %v", off, err)
		}
	}
}

// TestTrieSerializeTruncations cuts the stream at every length.
func TestTrieSerializeTruncations(t *testing.T) {
	tr := buildSmallTrie(t)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for n := 0; n < len(good); n++ {
		if _, err := ReadTrie(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		}
	}
}
