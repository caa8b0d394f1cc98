// Package storage supports the paper's Figure 3 motivation experiment:
// read and write latencies of compressed vs. uncompressed B+-tree leaf
// nodes across storage devices. The original uses a Samsung 870 SATA SSD,
// a 970 NVMe drive, Intel Optane persistent memory and DRAM with dropped
// caches; none of that hardware is assumed here, so device access costs
// come from a published-latency model (DESIGN.md §4) while the
// (de)compression CPU cost is measured live with stdlib flate standing in
// for LZ4. The orders of magnitude between device classes — the figure's
// actual point — are preserved.
package storage

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"
)

// Device models one storage class with fixed random-access latencies plus
// a transfer term.
type Device struct {
	Name     string
	ReadLat  time.Duration
	WriteLat time.Duration
	// MBps is the sustained transfer bandwidth for the size-dependent
	// term of an access.
	MBps float64
}

// The modeled device classes of Figure 3, with latency envelopes from
// public datasheets/benchmarks (QD1 4 KiB random access).
var (
	SATASSD = Device{Name: "Samsung 870 SSD", ReadLat: 80 * time.Microsecond, WriteLat: 45 * time.Microsecond, MBps: 530}
	NVMeSSD = Device{Name: "Samsung 970 NVMe", ReadLat: 20 * time.Microsecond, WriteLat: 14 * time.Microsecond, MBps: 3000}
	PMEM    = Device{Name: "PMEM", ReadLat: 1500 * time.Nanosecond, WriteLat: 2500 * time.Nanosecond, MBps: 6000}
	DRAM    = Device{Name: "DRAM", ReadLat: 90 * time.Nanosecond, WriteLat: 90 * time.Nanosecond, MBps: 25000}
)

// Devices lists the Figure 3 device classes in the paper's order.
var Devices = []Device{SATASSD, NVMeSSD, PMEM, DRAM}

// AccessTime returns the simulated device time for transferring size
// bytes, excluding any CPU (compression) work.
func (d Device) AccessTime(size int, write bool) time.Duration {
	lat := d.ReadLat
	if write {
		lat = d.WriteLat
	}
	transfer := time.Duration(float64(size) / (d.MBps * 1e6) * 1e9)
	return lat + transfer
}

// EncodeLeaf serializes a leaf node image (count + keys + values), the
// on-device representation of an uncompressed node.
func EncodeLeaf(keys, vals []uint64) []byte {
	buf := make([]byte, 8+len(keys)*8+len(vals)*8)
	binary.LittleEndian.PutUint64(buf, uint64(len(keys)))
	off := 8
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[off:], k)
		off += 8
	}
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[off:], v)
		off += 8
	}
	return buf
}

// DecodeLeaf reverses EncodeLeaf.
func DecodeLeaf(img []byte) (keys, vals []uint64, err error) {
	if len(img) < 8 {
		return nil, nil, fmt.Errorf("storage: leaf image too short (%d bytes)", len(img))
	}
	n := int(binary.LittleEndian.Uint64(img))
	if len(img) != 8+16*n {
		return nil, nil, fmt.Errorf("storage: leaf image size %d does not match count %d", len(img), n)
	}
	keys = make([]uint64, n)
	vals = make([]uint64, n)
	off := 8
	for i := range keys {
		keys[i] = binary.LittleEndian.Uint64(img[off:])
		off += 8
	}
	for i := range vals {
		vals[i] = binary.LittleEndian.Uint64(img[off:])
		off += 8
	}
	return keys, vals, nil
}

// flateWriters pools deflate encoders: constructing one allocates large
// internal tables, which would dominate per-node compression timings the
// way no real system lets it (engines reuse codec contexts).
var flateWriters = sync.Pool{New: func() any {
	w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
	return w
}}

// Compress deflates a node image (LZ4's stand-in; see the package doc).
func Compress(raw []byte) []byte {
	var buf bytes.Buffer
	w := flateWriters.Get().(*flate.Writer)
	w.Reset(&buf)
	_, _ = w.Write(raw)
	_ = w.Close()
	flateWriters.Put(w)
	return buf.Bytes()
}

// Decompress inflates a node image.
func Decompress(compressed []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(compressed))
	defer r.Close()
	return io.ReadAll(r)
}

// AccessResult is one measured cell of Figure 3.
type AccessResult struct {
	Device     string
	Compressed bool
	Write      bool
	// DeviceTime is the simulated transfer cost, CPUTime the measured
	// (de)compression + (de)serialization cost; Total is their sum.
	DeviceTime time.Duration
	CPUTime    time.Duration
	Total      time.Duration
	Bytes      int
}

// MeasureAccess simulates one node access on a device: reads transfer the
// stored image and decompress it if needed; writes (re-)compress the image
// and transfer the result. CPU work runs for real; device time is modeled.
func MeasureAccess(d Device, raw []byte, compressed, write bool) AccessResult {
	res := AccessResult{Device: d.Name, Compressed: compressed, Write: write}
	img := raw
	if compressed {
		img = Compress(raw)
		// Time the CPU leg over several iterations and keep the minimum:
		// one-shot timings are dominated by flate's table setup and
		// scheduler noise.
		const reps = 8
		best := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if write {
				img = Compress(raw)
			} else {
				out, err := Decompress(img)
				if err != nil || len(out) != len(raw) {
					panic("storage: decompression round-trip failed")
				}
			}
			if el := time.Since(start); el < best {
				best = el
			}
		}
		res.CPUTime = best
	}
	res.Bytes = len(img)
	res.DeviceTime = d.AccessTime(len(img), write)
	res.Total = res.DeviceTime + res.CPUTime
	return res
}
