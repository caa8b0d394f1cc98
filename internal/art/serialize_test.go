package art

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"ahi/internal/dataset"
)

func TestARTSerializeRoundTrip(t *testing.T) {
	tr := New()
	keys := dataset.OSM(20000, 41)
	kb := func(k uint64) []byte {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], k)
		return b[:]
	}
	for i, k := range keys {
		tr.Insert(kb(k), uint64(i))
	}
	// Delete some to populate the freelists.
	for i := 0; i < len(keys); i += 7 {
		tr.Delete(kb(keys[i]))
	}
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("byte accounting: %d vs %d", n, buf.Len())
	}
	g, err := ReadTree(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != tr.Len() {
		t.Fatalf("Len %d vs %d", g.Len(), tr.Len())
	}
	for i, k := range keys {
		v, ok := g.Lookup(kb(k))
		if i%7 == 0 {
			if ok {
				t.Fatalf("deleted key %d resurrected", k)
			}
			continue
		}
		if !ok || v != uint64(i) {
			t.Fatalf("key %d lost after load", k)
		}
	}
	// The loaded tree keeps working for mutations (freelists intact).
	g.Insert(kb(keys[0]), 999)
	if v, ok := g.Lookup(kb(keys[0])); !ok || v != 999 {
		t.Fatal("insert into loaded tree failed")
	}
}

func TestARTSerializeRejectsCorrupt(t *testing.T) {
	tr := New()
	tr.Insert([]byte{1, 2, 0}, 5)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	bad := append([]byte{}, good...)
	bad[3] ^= 0x40
	if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadTree(bytes.NewReader(good[:16])); err == nil {
		t.Fatal("truncated accepted")
	}
	// A version-1 stream: no checksum trailer.
	bad = append([]byte{}, good[:len(good)-8]...)
	binary.LittleEndian.PutUint64(bad[8:], 1)
	if _, err := ReadTree(bytes.NewReader(bad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version-1 stream: err = %v, want ErrCorrupt", err)
	}
}

// TestARTSerializeBitFlips flips one bit at every byte offset of a valid
// stream: the CRC trailer covers everything before it, so every flip must
// be rejected with ErrCorrupt — no flip may load silently, allocate
// wildly, or panic.
func TestARTSerializeBitFlips(t *testing.T) {
	tr := New()
	for i := byte(0); i < 30; i++ {
		tr.Insert([]byte{i, i * 3, 0}, uint64(i))
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := ReadTree(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine stream rejected: %v", err)
	}
	bad := make([]byte, len(good))
	for off := 0; off < len(good); off++ {
		copy(bad, good)
		bad[off] ^= 1 << (off % 8)
		if _, err := ReadTree(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flip at offset %d accepted", off)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("flip at offset %d: error not ErrCorrupt: %v", off, err)
		}
	}
}

// TestARTSerializeTruncations cuts the stream at every length.
func TestARTSerializeTruncations(t *testing.T) {
	tr := New()
	for i := byte(0); i < 10; i++ {
		tr.Insert([]byte{i, 0}, uint64(i))
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for n := 0; n < len(good); n++ {
		if _, err := ReadTree(bytes.NewReader(good[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(good))
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d: error not ErrCorrupt: %v", n, err)
		}
	}
}
