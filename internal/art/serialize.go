package art

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Serialization (version 2). The arenas are flat slices, so the on-disk
// form is a direct dump: header, scalar fields, each arena as a
// little-endian stream, then a CRC-32C trailer word covering every
// preceding byte. Freelists are persisted so slot recycling resumes
// exactly where it left off. Any other version is rejected.
const (
	artMagic   = uint64(0x4148494152543031) // "AHIART01"
	artVersion = uint64(2)
)

// ErrCorrupt is wrapped by every decode error caused by a damaged stream
// — bad magic, truncation, implausible section lengths, or a checksum
// mismatch — as opposed to I/O failures from the underlying reader.
var ErrCorrupt = errors.New("art: corrupt stream")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type leWriter struct {
	w       *bufio.Writer
	written int64
	crc     uint32
	err     error
}

func (lw *leWriter) raw(b []byte) {
	if lw.err != nil {
		return
	}
	lw.crc = crc32.Update(lw.crc, castagnoli, b)
	n, err := lw.w.Write(b)
	lw.written += int64(n)
	lw.err = err
}

func (lw *leWriter) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	lw.raw(buf[:])
}

func (lw *leWriter) bytes(b []byte) {
	lw.u64(uint64(len(b)))
	lw.raw(b)
}

func (lw *leWriter) u32s(s []uint32) {
	lw.u64(uint64(len(s)))
	for _, v := range s {
		lw.u64(uint64(v))
	}
}

// WriteTo serializes the tree. It implements io.WriterTo.
func (t *Tree) WriteTo(w io.Writer) (int64, error) {
	lw := &leWriter{w: bufio.NewWriter(w)}
	lw.u64(artMagic)
	lw.u64(artVersion)
	lw.u64(uint64(t.root))
	lw.u64(uint64(t.size))

	lw.u64(uint64(len(t.n4)))
	for i := range t.n4 {
		n := &t.n4[i]
		lw.u64(uint64(n.prefixOff)<<32 | uint64(n.prefixLen))
		lw.u64(uint64(n.numChildren))
		for j := 0; j < 4; j++ {
			lw.u64(uint64(n.keys[j]))
			lw.u64(uint64(n.children[j]))
		}
	}
	lw.u64(uint64(len(t.n16)))
	for i := range t.n16 {
		n := &t.n16[i]
		lw.u64(uint64(n.prefixOff)<<32 | uint64(n.prefixLen))
		lw.u64(uint64(n.numChildren))
		for j := 0; j < 16; j++ {
			lw.u64(uint64(n.keys[j]))
			lw.u64(uint64(n.children[j]))
		}
	}
	lw.u64(uint64(len(t.n48)))
	for i := range t.n48 {
		n := &t.n48[i]
		lw.u64(uint64(n.prefixOff)<<32 | uint64(n.prefixLen))
		lw.u64(uint64(n.numChildren))
		lw.raw(n.childIndex[:])
		for j := 0; j < 48; j++ {
			lw.u64(uint64(n.children[j]))
		}
	}
	lw.u64(uint64(len(t.n256)))
	for i := range t.n256 {
		n := &t.n256[i]
		lw.u64(uint64(n.prefixOff)<<32 | uint64(n.prefixLen))
		lw.u64(uint64(n.numChildren))
		for j := 0; j < 256; j++ {
			lw.u64(uint64(n.children[j]))
		}
	}
	lw.u64(uint64(len(t.leaves)))
	for i := range t.leaves {
		lw.u64(t.leaves[i].keyOff)
		lw.u64(uint64(t.leaves[i].keyLen))
		lw.u64(t.leaves[i].val)
	}
	lw.bytes(t.keyArena)
	lw.bytes(t.prefixArena)
	lw.u32s(t.free4)
	lw.u32s(t.free16)
	lw.u32s(t.free48)
	lw.u32s(t.free256)
	lw.u32s(t.freeLeaf)
	// Trailer: the running CRC, itself excluded from the checksum.
	trailer := lw.crc
	lw.u64(uint64(trailer))
	if lw.err != nil {
		return lw.written, lw.err
	}
	return lw.written, lw.w.Flush()
}

type leReader struct {
	r   *bufio.Reader
	crc uint32
	err error
}

func (lr *leReader) raw(b []byte) {
	if lr.err != nil {
		return
	}
	if _, err := io.ReadFull(lr.r, b); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = fmt.Errorf("truncated: %w", ErrCorrupt)
		}
		lr.err = err
		return
	}
	lr.crc = crc32.Update(lr.crc, castagnoli, b)
}

func (lr *leReader) u64() uint64 {
	var buf [8]byte
	lr.raw(buf[:])
	if lr.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (lr *leReader) count(limit uint64) int {
	n := lr.u64()
	if lr.err == nil && n > limit {
		lr.err = fmt.Errorf("art: implausible section length %d: %w", n, ErrCorrupt)
	}
	if lr.err != nil {
		return 0
	}
	return int(n)
}

// bytes reads a length-prefixed byte section in bounded chunks so a
// corrupt length cannot force a huge up-front allocation: the buffer only
// grows as data actually arrives.
func (lr *leReader) bytes() []byte {
	n := lr.count(1 << 40)
	if lr.err != nil {
		return nil
	}
	out := make([]byte, 0, min(n, 1<<20))
	var chunk [64 << 10]byte
	for len(out) < n && lr.err == nil {
		c := min(n-len(out), len(chunk))
		lr.raw(chunk[:c])
		out = append(out, chunk[:c]...)
	}
	if lr.err != nil {
		return nil
	}
	return out
}

func (lr *leReader) u32s() []uint32 {
	n := lr.count(1 << 32)
	if lr.err != nil {
		return nil
	}
	out := make([]uint32, 0, min(n, 1<<16))
	for i := 0; i < n && lr.err == nil; i++ {
		out = append(out, uint32(lr.u64()))
	}
	return out
}

// ReadTree deserializes a tree written by WriteTo.
func ReadTree(r io.Reader) (*Tree, error) {
	lr := &leReader{r: bufio.NewReader(r)}
	if m := lr.u64(); lr.err == nil && m != artMagic {
		return nil, fmt.Errorf("art: bad magic %#x: %w", m, ErrCorrupt)
	}
	if version := lr.u64(); lr.err == nil && version != artVersion {
		return nil, fmt.Errorf("art: unsupported version %d: %w", version, ErrCorrupt)
	}
	t := New()
	t.root = Handle(lr.u64())
	t.size = int(lr.u64())

	readHdr := func() header {
		pp := lr.u64()
		nc := lr.u64()
		return header{prefixOff: uint32(pp >> 32), prefixLen: uint32(pp), numChildren: uint16(nc)}
	}
	// Arena loops abort at the first stream error and grow by append, so a
	// corrupt count neither allocates a huge arena up front nor spins
	// through billions of empty reads.
	n4 := lr.count(1 << 32)
	t.n4 = make([]node4, 0, min(n4, 1<<12))
	for i := 0; i < n4 && lr.err == nil; i++ {
		var nd node4
		nd.header = readHdr()
		for j := 0; j < 4; j++ {
			nd.keys[j] = byte(lr.u64())
			nd.children[j] = Handle(lr.u64())
		}
		t.n4 = append(t.n4, nd)
	}
	n16 := lr.count(1 << 32)
	t.n16 = make([]node16, 0, min(n16, 1<<12))
	for i := 0; i < n16 && lr.err == nil; i++ {
		var nd node16
		nd.header = readHdr()
		for j := 0; j < 16; j++ {
			nd.keys[j] = byte(lr.u64())
			nd.children[j] = Handle(lr.u64())
		}
		t.n16 = append(t.n16, nd)
	}
	n48 := lr.count(1 << 32)
	t.n48 = make([]node48, 0, min(n48, 1<<10))
	for i := 0; i < n48 && lr.err == nil; i++ {
		var nd node48
		nd.header = readHdr()
		lr.raw(nd.childIndex[:])
		for j := 0; j < 48; j++ {
			nd.children[j] = Handle(lr.u64())
		}
		t.n48 = append(t.n48, nd)
	}
	n256 := lr.count(1 << 32)
	t.n256 = make([]node256, 0, min(n256, 1<<8))
	for i := 0; i < n256 && lr.err == nil; i++ {
		var nd node256
		nd.header = readHdr()
		for j := 0; j < 256; j++ {
			nd.children[j] = Handle(lr.u64())
		}
		t.n256 = append(t.n256, nd)
	}
	nLeaves := lr.count(1 << 40)
	t.leaves = make([]leafEntry, 0, min(nLeaves, 1<<16))
	for i := 0; i < nLeaves && lr.err == nil; i++ {
		var le leafEntry
		le.keyOff = lr.u64()
		le.keyLen = uint32(lr.u64())
		le.val = lr.u64()
		t.leaves = append(t.leaves, le)
	}
	t.keyArena = lr.bytes()
	t.prefixArena = lr.bytes()
	t.free4 = lr.u32s()
	t.free16 = lr.u32s()
	t.free48 = lr.u32s()
	t.free256 = lr.u32s()
	t.freeLeaf = lr.u32s()
	if lr.err == nil {
		// Snapshot before the trailer word feeds the hash; compare the full
		// word so flips in its zero upper half are caught too.
		want := uint64(lr.crc)
		if got := lr.u64(); lr.err == nil && got != want {
			return nil, fmt.Errorf("art: checksum mismatch %#x != %#x: %w", got, want, ErrCorrupt)
		}
	}
	if lr.err != nil {
		return nil, fmt.Errorf("art: reading tree: %w", lr.err)
	}
	return t, nil
}
