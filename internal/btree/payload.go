package btree

import (
	"sync"
	"sync/atomic"

	"ahi/internal/bitutil"
	"ahi/internal/bloom"
	"ahi/internal/core"
	"ahi/internal/hashmap"
)

// Leaf encodings, ordered from most to least compact. The adaptation
// manager treats these values as opaque; the CSHF and migration callback
// in adaptive.go give them meaning.
const (
	EncSuccinct core.Encoding = iota
	EncPacked
	EncGapped
)

// EncodingName returns a human-readable encoding name.
func EncodingName(e core.Encoding) string {
	switch e {
	case EncSuccinct:
		return "succinct"
	case EncPacked:
		return "packed"
	case EncGapped:
		return "gapped"
	default:
		return "unknown"
	}
}

// LeafCap is the slot count of a Gapped leaf. 256 key/value slots of 8
// bytes each put the Gapped payload at 4 KiB, matching Table 1.
const LeafCap = 256

// leafHeaderBytes approximates the fixed per-leaf overhead (lock, id,
// pointers, payload header) charged to every encoding's footprint.
const leafHeaderBytes = 64

// payload is one leaf image in one encoding. Its keys never change once
// the image is reachable from a leafBox: an insert or delete derives the
// next image from the current one (insertAt, removeAt below) under the
// leaf's lock and swaps the box, and so does a Succinct overwrite
// (succinct.withValue). A Gapped or Packed overwrite is the one write
// that lands in a published image: it stores the value word in place
// (flat.storeValue), still under the leaf's lock, and every reader loads
// those words atomically. DESIGN.md §9 "Leaf images and delta writes"
// states the protocol. A displaced image is left to the garbage collector.
type payload interface {
	encoding() core.Encoding
	count() int
	keyAt(i int) uint64
	valAt(i int) uint64
	// search returns the position of the first key >= k and whether it
	// equals k.
	search(k uint64) (int, bool)
	// searchFrom is search with a seed: the caller guarantees every key
	// before position from is < k, so the probe may skip the prefix.
	// Sorted batch runs use ascending seeds to scan each leaf once.
	searchFrom(k uint64, from int) (int, bool)
	// bytes is the heap footprint of the payload (excl. leaf header).
	bytes() int
	// appendAll decodes all pairs into the destination slices.
	appendAll(keys, vals []uint64) ([]uint64, []uint64)
	// decodeRange decodes elements [lo, hi) into ks/vs (each at least
	// hi-lo long) and returns the count — the bulk kernel behind scans
	// and iterators. For bit-packed encodings this is a bulk
	// unpack instead of a per-element Get, which is where sequential
	// access amortizes the compact layout's shift/mask tax.
	decodeRange(lo, hi int, ks, vs []uint64) int
	// touch reads one word per cache line of the payload and returns the
	// sum — a software prefetch. The fused scan walk touches the next
	// leaf's payload while the current leaf decodes, so the upcoming
	// misses overlap with unpack work instead of stalling the walk.
	touch() uint64
}

// touchWords reads one word per cache line of ws and returns the sum —
// the plain-slice half of the payload touch prefetch. The loads are
// atomic because value words may be stored in place concurrently.
func touchWords(ws []uint64) uint64 {
	var s uint64
	for i := 0; i < len(ws); i += 8 {
		s += atomic.LoadUint64(&ws[i])
	}
	return s
}

// loadWords copies src into dst (at least as long) with one atomic load
// per word, so the copy never races an in-place storeValue. It replaces
// the memmove a plain copy would be and is unrolled by eight, through
// array pointers that leave the loop free of bounds checks; on amd64
// each load is a plain MOV.
func loadWords(dst, src []uint64) {
	dst = dst[:len(src)]
	for len(src) >= 8 {
		s, d := (*[8]uint64)(src), (*[8]uint64)(dst)
		d[0] = atomic.LoadUint64(&s[0])
		d[1] = atomic.LoadUint64(&s[1])
		d[2] = atomic.LoadUint64(&s[2])
		d[3] = atomic.LoadUint64(&s[3])
		d[4] = atomic.LoadUint64(&s[4])
		d[5] = atomic.LoadUint64(&s[5])
		d[6] = atomic.LoadUint64(&s[6])
		d[7] = atomic.LoadUint64(&s[7])
		src, dst = src[8:], dst[8:]
	}
	for i := range src {
		dst[i] = atomic.LoadUint64(&src[i])
	}
}

// --- Gapped and Packed --------------------------------------------------

// flat is the uncompressed pair layout Gapped and Packed share: sorted
// keys and their values in two plain arrays. Keys are immutable; a value
// is overwritten in place by storeValue under the leaf's write lock, so
// every read of vals is an atomic load.
type flat struct {
	keys []uint64
	vals []uint64
}

func (f *flat) count() int         { return len(f.keys) }
func (f *flat) keyAt(i int) uint64 { return f.keys[i] }
func (f *flat) valAt(i int) uint64 { return atomic.LoadUint64(&f.vals[i]) }

// storeValue overwrites the value at position i of the published image.
// The caller holds the leaf's write lock, which orders it against every
// other write and lets MigrateLeaf see it by the lock's version.
func (f *flat) storeValue(i int, v uint64) { atomic.StoreUint64(&f.vals[i], v) }

func (f *flat) appendAll(keys, vals []uint64) ([]uint64, []uint64) {
	n := len(vals)
	vals = append(vals, make([]uint64, len(f.vals))...)
	loadWords(vals[n:], f.vals)
	return append(keys, f.keys...), vals
}

func (f *flat) touch() uint64 { return touchWords(f.keys) + touchWords(f.vals) }

func (f *flat) decodeRange(lo, hi int, ks, vs []uint64) int {
	copy(ks[:hi-lo], f.keys[lo:hi])
	loadWords(vs[:hi-lo], f.vals[lo:hi])
	return hi - lo
}

// flatOf returns the arrays of a Gapped or Packed image, nil for Succinct.
func flatOf(p payload) *flat {
	switch q := p.(type) {
	case *gapped:
		return &q.flat
	case *packed:
		return &q.flat
	}
	return nil
}

// gapped is the traditional universal encoding: fixed-capacity sorted
// arrays with free slots at the end (Figure 8 top).
type gapped struct {
	flat // len = count, cap = LeafCap
}

// allocGapped returns a Gapped image of n uninitialized pairs at full leaf
// capacity; the caller fills keys and vals before publishing it.
func allocGapped(n int) *gapped {
	return &gapped{flat{keys: make([]uint64, n, LeafCap), vals: make([]uint64, n, LeafCap)}}
}

func newGapped(keys, vals []uint64) *gapped {
	g := allocGapped(len(keys))
	copy(g.keys, keys)
	copy(g.vals, vals)
	return g
}

func (g *gapped) encoding() core.Encoding { return EncGapped }
func (g *gapped) bytes() int              { return cap(g.keys)*8 + cap(g.vals)*8 }

func (g *gapped) search(k uint64) (int, bool) { return searchInterp(g.keys, k) }

func (g *gapped) searchFrom(k uint64, from int) (int, bool) {
	pos, ok := searchInterp(g.keys[from:], k)
	return from + pos, ok
}

// packed stores keys and values densely, sized exactly (Figure 8 middle).
// Reads are as fast as Gapped and an overwrite stores in place like
// Gapped; an insert or delete builds both arrays at their new exact size.
type packed struct {
	flat
}

func allocPacked(n int) *packed {
	return &packed{flat{keys: make([]uint64, n), vals: make([]uint64, n)}}
}

func newPacked(keys, vals []uint64) *packed {
	p := allocPacked(len(keys))
	copy(p.keys, keys)
	copy(p.vals, vals)
	return p
}

func (p *packed) encoding() core.Encoding { return EncPacked }
func (p *packed) bytes() int              { return len(p.keys)*8 + len(p.vals)*8 }

func (p *packed) search(k uint64) (int, bool) { return searchDense(p.keys, k) }

func (p *packed) searchFrom(k uint64, from int) (int, bool) {
	pos, ok := searchDense(p.keys[from:], k)
	return from + pos, ok
}

// --- Scratch ----------------------------------------------------------

// kvScratch is a reusable pair of decode buffers for building Succinct
// images, splits and batch merges. bitutil.NewFORArray and the other
// payload constructors copy their input, so the buffers return to the pool
// as soon as the new payload is built and only the encoded payload is
// allocated. One slot beyond LeafCap holds a full leaf plus the key that
// splits it.
type kvScratch struct {
	keys, vals [LeafCap + 1]uint64
}

var kvPool = sync.Pool{New: func() any { return new(kvScratch) }}

// --- Succinct ---------------------------------------------------------

// succinct combines frame-of-reference coding with bit packing for both
// keys and values (Figure 8 bottom). Random access survives, at the cost
// of extra shift/mask work per probe. An overwrite shares the keys and
// patches or re-encodes the values (FORArray.WithSet); an insert or delete
// decodes and re-encodes both.
//
// neg, when present, is a negative-lookup filter over the leaf's keys:
// point lookups consult it before paying the bit-unpacking search, so
// misses on cold leaves short-circuit. The filter is immutable once the
// payload is published, which lets concurrent readers probe without
// synchronization: overwrites share it, inserts and deletes build a new
// one with the rest of the image.
type succinct struct {
	keys bitutil.FORArray
	vals bitutil.FORArray
	neg  *bloom.Filter
}

func newSuccinct(keys, vals []uint64) *succinct {
	return &succinct{keys: bitutil.NewFORArray(keys), vals: bitutil.NewFORArray(vals)}
}

// newSuccinctNeg is newSuccinct plus a freshly built negative filter at
// bitsPerKey bits per key (0 disables).
func newSuccinctNeg(keys, vals []uint64, bitsPerKey int) *succinct {
	s := newSuccinct(keys, vals)
	if bitsPerKey > 0 {
		s.neg = negFilterFor(keys, bitsPerKey)
	}
	return s
}

// negFilterFor builds the per-leaf filter. Key hashes reuse the sampler's
// hash so filter quality matches the rest of the system.
func negFilterFor(keys []uint64, bitsPerKey int) *bloom.Filter {
	f := bloom.New(len(keys), bitsPerKey)
	for _, k := range keys {
		f.Add(hashmap.HashU64(k))
	}
	return f
}

// mayContain is the miss fast path: false means k is definitely absent
// from this leaf. Always true when no filter is attached.
func (s *succinct) mayContain(k uint64) bool {
	return s.neg == nil || s.neg.Contains(hashmap.HashU64(k))
}

func (s *succinct) encoding() core.Encoding { return EncSuccinct }
func (s *succinct) count() int              { return s.keys.Len() }
func (s *succinct) keyAt(i int) uint64      { return s.keys.Get(i) }
func (s *succinct) valAt(i int) uint64      { return s.vals.Get(i) }
func (s *succinct) bytes() int {
	n := s.keys.Bytes() + s.vals.Bytes()
	if s.neg != nil {
		n += s.neg.Bytes() // the filter is part of the leaf's budget charge
	}
	return n
}

func (s *succinct) search(k uint64) (int, bool) {
	pos := s.keys.SearchSkip(k)
	return pos, pos < s.keys.Len() && s.keys.Get(pos) == k
}

func (s *succinct) searchFrom(k uint64, from int) (int, bool) {
	pos := s.keys.SearchSkipFrom(k, from)
	return pos, pos < s.keys.Len() && s.keys.Get(pos) == k
}

func (s *succinct) appendAll(keys, vals []uint64) ([]uint64, []uint64) {
	return s.keys.AppendTo(keys), s.vals.AppendTo(vals)
}

func (s *succinct) touch() uint64 { return s.keys.Touch() + s.vals.Touch() }

func (s *succinct) decodeRange(lo, hi int, ks, vs []uint64) int {
	s.keys.DecodeRange(lo, hi, ks)
	return s.vals.DecodeRange(lo, hi, vs)
}

// withValue returns a new image equal to this one except that the value
// at position i is v — the Succinct overwrite. A bit-packed value can
// straddle two words, so it cannot be stored in place; the keys and the
// negative filter are shared with the receiver.
func (s *succinct) withValue(i int, v uint64) *succinct {
	return &succinct{keys: s.keys, vals: s.vals.WithSet(i, v), neg: s.neg}
}

// encodePayload builds a payload of the requested encoding from sorted
// key/value slices — the migration primitive of the Hybrid B+-tree.
func encodePayload(enc core.Encoding, keys, vals []uint64) payload {
	switch enc {
	case EncGapped:
		return newGapped(keys, vals)
	case EncPacked:
		return newPacked(keys, vals)
	default:
		return newSuccinct(keys, vals)
	}
}

// imageBuf is the destination a new image's pairs are decoded into: the
// arrays of the Gapped or Packed image itself, so that encoding is the
// decode, or pooled scratch that seal encodes into a Succinct image.
type imageBuf struct {
	keys, vals []uint64
	img        payload    // Gapped/Packed: the image owning keys and vals
	sc         *kvScratch // Succinct: the scratch behind keys and vals
}

func newImageBuf(target core.Encoding, n int) imageBuf {
	switch target {
	case EncGapped:
		g := allocGapped(n)
		return imageBuf{keys: g.keys, vals: g.vals, img: g}
	case EncPacked:
		p := allocPacked(n)
		return imageBuf{keys: p.keys, vals: p.vals, img: p}
	}
	sc := kvPool.Get().(*kvScratch)
	return imageBuf{keys: sc.keys[:n], vals: sc.vals[:n], sc: sc}
}

// seal returns the finished image; a Succinct one gets a negative filter
// at negBits bits per key (0: none).
func (b imageBuf) seal(negBits int) payload {
	if b.img != nil {
		return b.img
	}
	s := newSuccinctNeg(b.keys, b.vals, negBits)
	kvPool.Put(b.sc)
	return s
}

// decodeLocked is p.decodeRange for a caller that holds the leaf's write
// lock. No value store can run concurrently then (storeValue needs the
// same lock, which also orders every earlier store before this read), so
// Gapped and Packed values are copied with a plain memmove instead of
// loadWords' per-word loads.
func decodeLocked(p payload, lo, hi int, ks, vs []uint64) {
	if f := flatOf(p); f != nil {
		copy(ks[:hi-lo], f.keys[lo:hi])
		copy(vs[:hi-lo], f.vals[lo:hi])
		return
	}
	p.decodeRange(lo, hi, ks, vs)
}

// decodeInserting decodes p's pairs into ks/vs (one longer than p) with
// (k, v) at position pos: the single decode pass that leaves the gap. The
// caller holds the leaf's write lock.
func decodeInserting(p payload, pos int, k, v uint64, ks, vs []uint64) {
	decodeLocked(p, 0, pos, ks, vs)
	ks[pos], vs[pos] = k, v
	decodeLocked(p, pos, p.count(), ks[pos+1:], vs[pos+1:])
}

// insertAt returns an image of encoding target holding p's pairs plus
// (k, v) at position pos: one decode that leaves the gap, one encode. The
// caller holds the leaf's write lock.
func insertAt(p payload, target core.Encoding, pos int, k, v uint64, negBits int) payload {
	b := newImageBuf(target, p.count()+1)
	decodeInserting(p, pos, k, v, b.keys, b.vals)
	return b.seal(negBits)
}

// removeAt returns an image in p's encoding without the pair at position
// pos: one decode that closes the hole, one encode. The caller holds the
// leaf's write lock.
func removeAt(p payload, pos int, negBits int) payload {
	n := p.count()
	b := newImageBuf(p.encoding(), n-1)
	decodeLocked(p, 0, pos, b.keys, b.vals)
	decodeLocked(p, pos+1, n, b.keys[pos:], b.vals[pos:])
	return b.seal(negBits)
}

// reencode returns p's pairs in the target encoding (p itself when the
// encoding already matches) — the migration primitive.
func reencode(p payload, target core.Encoding, negBits int) payload {
	if p.encoding() == target {
		return p
	}
	n := p.count()
	b := newImageBuf(target, n)
	p.decodeRange(0, n, b.keys, b.vals)
	return b.seal(negBits)
}
