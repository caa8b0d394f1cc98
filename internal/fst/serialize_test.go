package fst

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ahi/internal/dataset"
)

func TestSerializeRoundTrip(t *testing.T) {
	keys := dataset.OSM(20000, 31)
	vals := seqVals(len(keys))
	for name, cfg := range configs() {
		t.Run(name, func(t *testing.T) {
			f := New(cfg, u64keys(keys), vals)
			var buf bytes.Buffer
			n, err := f.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("WriteTo reported %d of %d bytes", n, buf.Len())
			}
			g, err := ReadFST(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if g.Len() != f.Len() || g.Height() != f.Height() ||
				g.DenseNodes() != f.DenseNodes() || g.SparseNodes() != f.SparseNodes() {
				t.Fatal("metadata mismatch")
			}
			for i, k := range keys {
				v, ok := g.Lookup(u64key(k))
				if !ok || v != vals[i] {
					t.Fatalf("loaded FST lost key %d", k)
				}
			}
			// Iterators over the loaded trie still work (directories were
			// rebuilt correctly).
			it := NewIterator(g)
			count := 0
			for ok := it.SeekFirst(); ok; ok = it.Next() {
				count++
			}
			if count != len(keys) {
				t.Fatalf("loaded iterator visited %d", count)
			}
		})
	}
}

func TestSerializeEmails(t *testing.T) {
	emails := dataset.Emails(5000, 33)
	keys := make([][]byte, len(emails))
	for i, e := range emails {
		keys[i] = append([]byte(e), 0)
	}
	f := New(AutoDense(), keys, seqVals(len(keys)))
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	onDisk := buf.Len()
	g, err := ReadFST(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if v, ok := g.Lookup(keys[i]); !ok || v != uint64(i)*3 {
			t.Fatalf("email %q lost", emails[i])
		}
	}
	// The serialized form should be in the ballpark of the in-memory
	// succinct footprint (directories excluded, headers added).
	if int64(onDisk) > f.Bytes()*2 {
		t.Fatalf("on-disk %d vs in-memory %d", onDisk, f.Bytes())
	}
}

func TestSerializeRejectsCorrupt(t *testing.T) {
	f := New(AutoDense(), [][]byte{{1, 0}, {2, 0}}, []uint64{1, 2})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] ^= 0xff
	if _, err := ReadFST(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Bad version.
	bad = append([]byte{}, good...)
	bad[8] ^= 0xff
	if _, err := ReadFST(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad version accepted")
	}
	// A version-1 stream: no checksum trailer.
	bad = append([]byte{}, good[:len(good)-8]...)
	binary.LittleEndian.PutUint64(bad[8:], 1)
	if _, err := ReadFST(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 stream: err = %v, want ErrCorrupt", err)
	}
	// Truncated payload.
	if _, err := ReadFST(bytes.NewReader(good[:len(good)-9])); err == nil {
		t.Fatal("truncated input accepted")
	}
	// Empty input.
	if _, err := ReadFST(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSerializeEmpty(t *testing.T) {
	f := New(AutoDense(), nil, nil)
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFST(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 0 {
		t.Fatal("empty round trip")
	}
	if _, ok := g.Lookup([]byte{1}); ok {
		t.Fatal("empty FST hit after load")
	}
}

// TestSerializeBitFlips flips one bit at every byte offset of a valid
// stream: the CRC trailer covers everything before it, so every flip must
// be rejected with ErrCorrupt — never loaded silently.
func TestSerializeBitFlips(t *testing.T) {
	f := New(AutoDense(), [][]byte{{1, 0}, {2, 0}, {3, 1, 0}, {9, 9, 0}}, []uint64{1, 2, 3, 4})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadFST(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
	bad := make([]byte, len(good))
	for off := 0; off < len(good); off++ {
		copy(bad, good)
		bad[off] ^= 1 << (off % 8)
		if _, err := ReadFST(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at offset %d: error not ErrCorrupt: %v", off, err)
		}
	}
}

// TestSerializeTruncations cuts the stream at every length.
func TestSerializeTruncations(t *testing.T) {
	f := New(AutoDense(), [][]byte{{1, 0}, {2, 0}}, []uint64{1, 2})
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for n := 0; n < len(good); n++ {
		if _, err := ReadFST(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: error not ErrCorrupt: %v", n, err)
		}
	}
}
