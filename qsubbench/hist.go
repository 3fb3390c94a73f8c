package main

import (
	"math"
	"math/bits"
	"sort"
	"sync/atomic"
)

// hist is a lock-free log-linear histogram of non-negative nanosecond
// values: exact below 128ns, then 128 buckets per power of two. A
// quantile is reported as its bucket's midpoint, so it lies within 0.4%
// of a recorded value — well inside the 1% the benchmark's bounds need,
// unlike the program's own 6.25%-step and 2.5s-capped histograms.
type hist struct {
	buckets [histSub * 58]atomic.Uint64
	n       atomic.Uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
)

func histBucket(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < histSub {
		return int(u)
	}
	e := bits.Len64(u) - histSubBits - 1
	return histSub + e*histSub + int(u>>uint(e)) - histSub
}

// histMid is the midpoint of bucket b's value range.
func histMid(b int) float64 {
	if b < histSub {
		return float64(b)
	}
	e := uint(b/histSub - 1)
	lo := uint64(b%histSub+histSub) << e
	return float64(lo) + float64(uint64(1)<<e)/2
}

func (h *hist) add(v int64) {
	h.buckets[histBucket(v)].Add(1)
	h.n.Add(1)
}

func (h *hist) count() uint64 { return h.n.Load() }

// merge adds o's counts to h.
func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c > 0 {
			h.buckets[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
}

// quantile returns the nearest-rank q-quantile in nanoseconds, 0 when
// empty.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return histMid(i)
		}
	}
	return histMid(len(h.buckets) - 1)
}

// exactQuantile is the nearest-rank q-quantile of a small sample, 0
// when empty. It sorts vs in place.
func exactQuantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	rank := int(math.Ceil(q * float64(len(vs))))
	if rank < 1 {
		rank = 1
	}
	return vs[rank-1]
}

func median(vs []float64) float64 { return exactQuantile(append([]float64(nil), vs...), 0.5) }
