package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: exact below
// 2^histSubBits, then histSub buckets per octave (relative width < 1 %).
// Quantiles interpolate inside the bucket that holds the rank, so a p50
// of ~100 ns timed with a 1 ns clock still reads as a continuous value
// instead of snapping to the same integer on every run.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
	sum    uint64
	max    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histOctaves = 34 // up to 2^40 ns ≈ 18 min
	histBuckets = (histOctaves + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	exp := bits.Len64(v) - histSubBits - 1
	if exp >= histOctaves {
		return histBuckets - 1
	}
	return (exp+1)*histSub + int(v>>uint(exp)) - histSub
}

// histBounds returns the value range [lo, hi) bucket i covers.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i) - 0.5, float64(i) + 0.5
	}
	exp := uint(i/histSub - 1)
	base := uint64(i%histSub+histSub) << exp
	return float64(base) - 0.5, float64(base+1<<exp) - 0.5
}

func (h *hist) add(ns int64) {
	v := uint64(ns)
	if ns < 0 {
		v = 0
	}
	h.counts[histIndex(v)]++
	h.n++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile (0 < q < 1) in ns; 0 for an empty
// histogram.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			v := lo + (hi-lo)*(rank-seen)/float64(c)
			if v < 0 {
				v = 0
			}
			return v
		}
		seen += float64(c)
	}
	return float64(h.max)
}

// median of a small sample; the mean of the two middle values when even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func minMax(xs []float64) (lo, hi float64) {
	for i, x := range xs {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
