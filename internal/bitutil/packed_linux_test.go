package bitutil

import (
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestDecodeRangeStaysInSlice decodes arrays whose last payload byte is
// the last byte of a readable page followed by an inaccessible one, so a
// kernel load that reaches past the words slice faults and fails the test
// instead of reading a neighbour's bytes unnoticed.
func TestDecodeRangeStaysInSlice(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	for width := uint8(1); width <= 64; width++ {
		// The smallest n >= 40 whose last element ends in the final byte
		// of the final word.
		n := 40
		for (n*int(width)+7)/8 != (n*int(width)+63)/64*8 {
			n++
		}
		vals := make([]uint64, n)
		for i := range vals {
			vals[i] = uint64(i+1) * 0x9e3779b97f4a7c15 >> (64 - width)
		}
		src := NewPackedArray(vals, width)
		nw := len(src.words)
		words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[page-8*nw])), nw)
		copy(words, src.words)
		p := PackedArray{words: words, n: n, width: width}
		dst := make([]uint64, n)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("w=%d n=%d: decode faulted: %v", width, n, r)
				}
			}()
			p.DecodeRange(0, n, dst)
		}()
		for i, want := range vals {
			if dst[i] != want {
				t.Fatalf("w=%d n=%d: elem %d = %d, want %d", width, n, i, dst[i], want)
			}
		}
	}
}
