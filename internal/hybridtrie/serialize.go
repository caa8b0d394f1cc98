package hybridtrie

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"ahi/internal/art"
	"ahi/internal/fst"
)

// Serialization (version 2): the trie header (cutoff level, key count,
// migration counters and size baselines) protected by its own CRC-32C
// word, followed by the embedded FST and ART streams, each carrying its
// own checksum trailer. The loaded trie resumes exactly where the saved
// one was, including its current expansions. Any other version is
// rejected.
const (
	trieMagic   = uint64(0x4148494854523031) // "AHIHTR01"
	trieVersion = uint64(2)
)

// ErrCorrupt is wrapped by every decode error caused by a damaged header
// — bad magic, truncation, or a checksum mismatch. Damage inside the
// embedded streams surfaces as fst.ErrCorrupt or art.ErrCorrupt.
var ErrCorrupt = errors.New("hybridtrie: corrupt stream")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the trie. It implements io.WriterTo.
func (t *Trie) WriteTo(w io.Writer) (int64, error) {
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
	if err := emit(trieMagic, trieVersion,
		uint64(t.cArt), uint64(t.numKeys), uint64(t.maxKeyLen),
		uint64(t.artTopBytes), uint64(t.expandedCnt),
		uint64(t.expansions), uint64(t.compactions)); err != nil {
		return written, err
	}
	// Header CRC word (the embedded streams below carry their own).
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(crc))
	n0, err := bw.Write(buf[:])
	written += int64(n0)
	if err != nil {
		return written, err
	}
	if err := bw.Flush(); err != nil {
		return written, err
	}
	n, err := t.fst.WriteTo(w)
	written += n
	if err != nil {
		return written, err
	}
	n, err = t.art.WriteTo(w)
	written += n
	return written, err
}

// ReadTrie deserializes a trie written by WriteTo.
func ReadTrie(r io.Reader) (*Trie, error) {
	br := bufio.NewReader(r)
	head := make([]uint64, 9)
	var buf [8]byte
	var crc uint32
	for i := range head {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return nil, fmt.Errorf("hybridtrie: reading header: %w", ErrCorrupt)
		}
		crc = crc32.Update(crc, castagnoli, buf[:])
		head[i] = binary.LittleEndian.Uint64(buf[:])
	}
	if head[0] != trieMagic {
		return nil, fmt.Errorf("hybridtrie: bad magic %#x: %w", head[0], ErrCorrupt)
	}
	if head[1] != trieVersion {
		return nil, fmt.Errorf("hybridtrie: unsupported version %d: %w", head[1], ErrCorrupt)
	}
	if _, err := io.ReadFull(br, buf[:]); err != nil {
		return nil, fmt.Errorf("hybridtrie: reading header checksum: %w", ErrCorrupt)
	}
	// Full-word compare: flips in the trailer's zero upper half count.
	if got := binary.LittleEndian.Uint64(buf[:]); got != uint64(crc) {
		return nil, fmt.Errorf("hybridtrie: header checksum mismatch %#x != %#x: %w", got, crc, ErrCorrupt)
	}
	t := &Trie{
		cArt: int(head[2]), numKeys: int(head[3]), maxKeyLen: int(head[4]),
		artTopBytes: int64(head[5]), expandedCnt: int64(head[6]),
		expansions: int64(head[7]), compactions: int64(head[8]),
	}
	var err error
	if t.fst, err = fst.ReadFST(br); err != nil {
		return nil, err
	}
	if t.art, err = art.ReadTree(br); err != nil {
		return nil, err
	}
	return t, nil
}
