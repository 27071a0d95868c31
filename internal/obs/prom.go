package obs

import (
	"fmt"
	"io"
	"strconv"
)

// highBucket returns the index of the highest non-empty bucket, -1 when
// the snapshot is empty.
func (s HistSnapshot) highBucket() int {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Buckets[i] != 0 {
			return i
		}
	}
	return -1
}

// TrimmedBuckets returns the bucket counts up to and including the
// highest non-empty bucket — the compact form /statsz ships so clients
// can reconstruct the snapshot (see FromBuckets) and diff across runs.
func (s HistSnapshot) TrimmedBuckets() []int64 {
	hi := s.highBucket()
	if hi < 0 {
		return nil
	}
	out := make([]int64, hi+1)
	copy(out, s.Buckets[:hi+1])
	return out
}

// FromBuckets reconstructs a snapshot from the compact form (count,
// sum, max plus a possibly trimmed bucket slice), the inverse of
// TrimmedBuckets — how wsload rebuilds server-side snapshots from
// /statsz JSON to diff and quantile them.
func FromBuckets(count, sum, max int64, buckets []int64) HistSnapshot {
	s := HistSnapshot{Count: count, Sum: sum, Max: max}
	n := len(buckets)
	if n > NumBuckets {
		n = NumBuckets
	}
	copy(s.Buckets[:], buckets[:n])
	return s
}

// WriteProm writes the snapshot in Prometheus text exposition format as
// a cumulative histogram named name; scale multiplies values on the way
// out (1e-9 turns nanoseconds into seconds, the Prometheus base unit).
func (s HistSnapshot) WriteProm(w io.Writer, name string, scale float64) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	cum := int64(0)
	hi := s.highBucket()
	for i := 0; i <= hi; i++ {
		cum += s.Buckets[i]
		// Unscaled values are integers, so bucket i's inclusive upper
		// bound is BucketHi-1 (exact); scaled values are continuous and
		// use the exclusive bound directly.
		bound := BucketHi(i) * scale
		if scale == 1 {
			bound = BucketHi(i) - 1
		}
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, s.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(s.Sum)*scale)
	fmt.Fprintf(w, "%s_count %d\n", name, s.Count)
}
