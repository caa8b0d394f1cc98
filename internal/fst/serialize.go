package fst

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ahi/internal/bitutil"
)

// Serialization format (version 2): a magic/version header, the scalar
// layout fields, each section as a uint64-word stream, then a CRC-32C
// trailer word covering every preceding byte. Rank/select directories are
// rebuilt at load time, so the on-disk form is close to the succinct
// in-memory payload. All integers are little-endian. Any other version
// is rejected.
const (
	fstMagic   = uint64(0x4148494653543031) // "AHIFST01"
	fstVersion = uint64(2)
)

// ErrCorrupt is wrapped by every decode error caused by a damaged stream
// — bad magic, truncation, implausible section lengths, or a checksum
// mismatch — as opposed to I/O failures from the underlying reader.
var ErrCorrupt = errors.New("fst: corrupt stream")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the FST. It implements io.WriterTo.
func (f *FST) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	var crc uint32
	emit := func(vals ...uint64) error {
		for _, v := range vals {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], v)
			crc = crc32.Update(crc, castagnoli, buf[:])
			n, err := bw.Write(buf[:])
			written += int64(n)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit(fstMagic, fstVersion,
		uint64(f.nd), uint64(f.ns), uint64(f.dEdges),
		uint64(f.height), uint64(f.numKeys)); err != nil {
		return written, err
	}
	var words []uint64
	words = f.dLabels.AppendUint64s(words)
	words = f.dHasChild.AppendUint64s(words)
	words = append(words, uint64(len(f.dValues)))
	words = append(words, f.dValues...)
	words = append(words, uint64(len(f.sLabels)))
	words = appendBytesAsWords(words, f.sLabels)
	words = f.sHasChild.AppendUint64s(words)
	words = f.sLouds.AppendUint64s(words)
	words = append(words, uint64(len(f.sValues)))
	words = append(words, f.sValues...)
	if err := emit(uint64(len(words))); err != nil {
		return written, err
	}
	if err := emit(words...); err != nil {
		return written, err
	}
	// Trailer: the running CRC, itself excluded from the checksum.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(crc))
	n, err := bw.Write(buf[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	return written, bw.Flush()
}

// ReadFST deserializes an FST written by WriteTo.
func ReadFST(r io.Reader) (*FST, error) {
	br := bufio.NewReader(r)
	var crc uint32
	readU64 := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("truncated: %w", ErrCorrupt)
			}
			return 0, err
		}
		crc = crc32.Update(crc, castagnoli, buf[:])
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	head := make([]uint64, 7)
	for i := range head {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("fst: reading header: %w", err)
		}
		head[i] = v
	}
	if head[0] != fstMagic {
		return nil, fmt.Errorf("fst: bad magic %#x: %w", head[0], ErrCorrupt)
	}
	if head[1] != fstVersion {
		return nil, fmt.Errorf("fst: unsupported version %d: %w", head[1], ErrCorrupt)
	}
	f := &FST{
		nd: int(head[2]), ns: int(head[3]), dEdges: int(head[4]),
		height: int(head[5]), numKeys: int(head[6]),
	}
	nWords, err := readU64()
	if err != nil {
		return nil, err
	}
	if nWords > 1<<40 {
		return nil, fmt.Errorf("fst: implausible payload length %d: %w", nWords, ErrCorrupt)
	}
	// Grow as data actually arrives: a corrupt length must not translate
	// into a huge up-front allocation before the stream runs dry.
	words := make([]uint64, 0, min(nWords, 1<<20))
	for i := uint64(0); i < nWords; i++ {
		v, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("fst: reading payload: %w", err)
		}
		words = append(words, v)
	}
	// Snapshot before the trailer word feeds the hash; compare the full
	// word so flips in its zero upper half are caught too.
	want := uint64(crc)
	var buf [8]byte
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("fst: reading checksum trailer: %w", ErrCorrupt)
	}
	if got := binary.LittleEndian.Uint64(buf[:]); got != want {
		return nil, fmt.Errorf("fst: checksum mismatch %#x != %#x: %w", got, want, ErrCorrupt)
	}
	if f.dLabels, words, err = bitutil.BitVectorFromUint64s(words); err != nil {
		return nil, err
	}
	if f.dHasChild, words, err = bitutil.BitVectorFromUint64s(words); err != nil {
		return nil, err
	}
	if f.dValues, words, err = takeU64s(words); err != nil {
		return nil, err
	}
	if f.sLabels, words, err = takeBytes(words); err != nil {
		return nil, err
	}
	if f.sHasChild, words, err = bitutil.BitVectorFromUint64s(words); err != nil {
		return nil, err
	}
	if f.sLouds, words, err = bitutil.BitVectorFromUint64s(words); err != nil {
		return nil, err
	}
	if f.sValues, words, err = takeU64s(words); err != nil {
		return nil, err
	}
	if len(words) != 0 {
		return nil, fmt.Errorf("fst: %d trailing payload words: %w", len(words), ErrCorrupt)
	}
	return f, nil
}

func appendBytesAsWords(dst []uint64, b []byte) []uint64 {
	for i := 0; i < len(b); i += 8 {
		var w uint64
		for j := 0; j < 8 && i+j < len(b); j++ {
			w |= uint64(b[i+j]) << (8 * j)
		}
		dst = append(dst, w)
	}
	return dst
}

func takeU64s(src []uint64) ([]uint64, []uint64, error) {
	if len(src) < 1 {
		return nil, nil, fmt.Errorf("fst: truncated section: %w", ErrCorrupt)
	}
	n := int(src[0])
	src = src[1:]
	if n < 0 || n > len(src) {
		return nil, nil, fmt.Errorf("fst: corrupt section length %d: %w", n, ErrCorrupt)
	}
	out := make([]uint64, n)
	copy(out, src[:n])
	return out, src[n:], nil
}

func takeBytes(src []uint64) ([]byte, []uint64, error) {
	if len(src) < 1 {
		return nil, nil, fmt.Errorf("fst: truncated byte section: %w", ErrCorrupt)
	}
	n := int(src[0])
	src = src[1:]
	words := (n + 7) / 8
	if n < 0 || words > len(src) {
		return nil, nil, fmt.Errorf("fst: corrupt byte section length %d: %w", n, ErrCorrupt)
	}
	out := make([]byte, n)
	for i := 0; i < n; i++ {
		out[i] = byte(src[i/8] >> (8 * (i % 8)))
	}
	return out, src[words:], nil
}
