package main

import (
	"math/bits"
	"sort"
)

// hist is a log-linear latency histogram over nanoseconds: 64 linear
// sub-buckets per power of two, so a quantile is off by at most 1.6 % of
// its value before interpolation. internal/obs buckets by powers of two,
// which is too coarse to hold a 10 % regression bound.
type hist struct {
	n int64
	b [histBuckets]uint32
}

const (
	histSub     = 6                         // log2 of sub-buckets per octave
	histBuckets = (42 - histSub) << histSub // values up to 2^41 ns (~36 min)
)

func histIndex(v int64) int {
	if v < 1<<(histSub+1) {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (histSub + 1)
	i := e<<histSub + int(v>>uint(e))
	return min(i, histBuckets-1)
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < 1<<(histSub+1) {
		return float64(i), 1
	}
	e := uint(i>>histSub) - 1
	m := int64(i&(1<<histSub-1)) + 1<<histSub
	return float64(m << e), float64(int64(1) << e)
}

func (h *hist) record(ns int64) {
	h.b[histIndex(ns)]++
	h.n++
}

func (h *hist) merge(o *hist) {
	h.n += o.n
	for i, c := range o.b {
		h.b[i] += c
	}
}

// quantile interpolates linearly inside the covering bucket; 0 when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	cum := 0.0
	for i, c := range h.b {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, width := histBounds(i)
			return lo + (rank-cum)/float64(c)*width
		}
		cum += float64(c)
	}
	lo, width := histBounds(histBuckets - 1)
	return lo + width
}

// median returns the median of xs (the mean of the middle two when
// their number is even); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
