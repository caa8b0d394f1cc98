package wal

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzWALDecode throws arbitrary bytes at the frame decoder and asserts
// the core safety property: DecodeFrame either returns a frame whose
// re-encoding reproduces the input bytes exactly, or an error wrapping
// ErrCorrupt — never a panic, never an out-of-range size, and never a
// "valid" record that the encoder would not itself have produced.
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, RecNoop, nil))
	f.Add(AppendFrame(nil, RecInsert, EncodeInsert(nil, 1, 2)))
	f.Add(AppendFrame(nil, RecBatch, EncodeBatch(nil, []uint64{1, 2}, []uint64{3, 4})))
	torn := AppendFrame(nil, RecDelete, EncodeDelete(nil, 9))
	f.Add(torn[:len(torn)-3])
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, size, err := DecodeFrame(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		if size < frameHdrLen || size > len(data) {
			t.Fatalf("size %d out of range for %d input bytes", size, len(data))
		}
		if re := AppendFrame(nil, typ, payload); !bytes.Equal(re, data[:size]) {
			t.Fatal("re-encoded frame differs from accepted input")
		}
		// Typed payloads must decode or reject cleanly too.
		switch typ {
		case RecInsert:
			_, _, _ = DecodeInsert(payload)
		case RecDelete:
			_, _ = DecodeDelete(payload)
		case RecBatch:
			_, _, _ = DecodeBatch(payload, nil, nil)
		}
	})
}

// FuzzWALStream decodes a whole stream of frames the way segment
// scanning does, asserting forward progress and clean truncation.
func FuzzWALStream(f *testing.F) {
	var seed []byte
	seed = AppendFrame(seed, RecInsert, EncodeInsert(nil, 1, 2))
	seed = AppendFrame(seed, RecNoop, nil)
	f.Add(seed)
	f.Add(seed[:len(seed)-1])

	f.Fuzz(func(t *testing.T, data []byte) {
		off := 0
		for off < len(data) {
			_, _, size, err := DecodeFrame(data[off:])
			if err != nil {
				return // torn tail: scanning stops here
			}
			if size <= 0 {
				t.Fatalf("no forward progress at offset %d", off)
			}
			off += size
		}
	})
}
