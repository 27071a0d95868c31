// Package obs is the always-on observability layer: lock-free,
// mergeable log-bucketed histograms, a monotonic-clock stage timer, the
// depth/stage telemetry bundles the engines and the server thread
// through the stack, and the Registry every stats surface renders.
//
// The design constraint is the hot path: recording must cost a handful
// of atomic adds, allocate nothing, and — like metrics.Counter — be a
// no-op on a nil receiver, so instrumented code needs no branches of its
// own. Histograms use power-of-two buckets in fixed arrays: bucket 0
// counts zero (and negative) values, bucket i counts values in
// [2^(i-1), 2^i), indexed by bits.Len64. Quantiles are computed on
// snapshots by linear interpolation inside the covering bucket, so a
// reported quantile is within a factor of two of the true value — exact
// enough to attribute tail latency to a stage, or to witness the
// O(log w) depth property live.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// NumBuckets is the fixed bucket count of a Histogram. Bucket 0 counts
// values <= 0; bucket i (i >= 1) counts values in [2^(i-1), 2^i). The
// largest positive int64 has bit length 63, so 64 buckets cover the
// whole value range.
const NumBuckets = 64

// epoch anchors the package's monotonic clock: time.Since reads the
// monotonic reading of both times, so Now/Since never observe wall-clock
// jumps and never allocate.
var epoch = time.Now()

// Now returns a monotonic timestamp in nanoseconds since process start.
func Now() int64 { return int64(time.Since(epoch)) }

// Since returns the nanoseconds elapsed since a Now() timestamp.
func Since(start int64) int64 { return Now() - start }

// bucketOf returns the bucket index covering v.
func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLo returns the inclusive lower bound of bucket i as a float
// (bucket 0 starts at 0).
func BucketLo(i int) float64 {
	if i <= 0 {
		return 0
	}
	return math.Ldexp(1, i-1)
}

// BucketHi returns the exclusive upper bound of bucket i as a float
// (bucket 0 ends at 1).
func BucketHi(i int) float64 {
	if i <= 0 {
		return 1
	}
	return math.Ldexp(1, i)
}

// Histogram is a lock-free log-bucketed histogram. All methods are safe
// for concurrent use and are no-ops on a nil receiver, so an
// uninstrumented engine pays one predictable branch per record site.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Record adds one observation of v.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n observations of v (one atomic add per field, so a
// group of identical observations — e.g. every call of a combined group
// resolving at the same depth — costs the same as a single one).
func (h *Histogram) RecordN(v int64, n int64) {
	if h == nil || n <= 0 {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)].Add(n)
	h.count.Add(n)
	h.sum.Add(v * n)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// recording makes the copy slightly racy across fields (count may lag a
// bucket increment by one); within a quiescent window it is exact.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistSnapshot is an immutable histogram snapshot: a plain value, safe
// to merge, diff and quantile without touching the live histogram.
type HistSnapshot struct {
	Count   int64
	Sum     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Merge returns the bucket-wise sum of s and o. Merging is associative
// and commutative, so per-shard snapshots fold into one in any order.
func (s HistSnapshot) Merge(o HistSnapshot) HistSnapshot {
	r := HistSnapshot{Count: s.Count + o.Count, Sum: s.Sum + o.Sum, Max: s.Max}
	if o.Max > r.Max {
		r.Max = o.Max
	}
	for i := range r.Buckets {
		r.Buckets[i] = s.Buckets[i] + o.Buckets[i]
	}
	return r
}

// Sub returns the bucket-wise difference s - o: the observations
// recorded after o was taken, assuming o is an earlier snapshot of the
// same histogram. Max carries over from s (a maximum cannot be
// un-observed).
func (s HistSnapshot) Sub(o HistSnapshot) HistSnapshot {
	r := HistSnapshot{Count: s.Count - o.Count, Sum: s.Sum - o.Sum, Max: s.Max}
	for i := range r.Buckets {
		r.Buckets[i] = s.Buckets[i] - o.Buckets[i]
	}
	return r
}

// Mean returns the arithmetic mean of the recorded values.
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile returns the q-quantile (0 <= q <= 1) by linear interpolation
// inside the covering bucket, clamped to the observed maximum. The
// result is within the true value's power-of-two bucket.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, c := range s.Buckets {
		if c <= 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum >= rank {
			lo, hi := BucketLo(i), BucketHi(i)
			v := lo + (rank-prev)/float64(c)*(hi-lo)
			if m := float64(s.Max); s.Max > 0 && v > m {
				v = m
			}
			return v
		}
	}
	return float64(s.Max)
}
