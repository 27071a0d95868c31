package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/twothree"
)

// BenchmarkSegmentPop is the transfer restore and the insert cascade make
// between neighbouring segments: the b least recent items of a pooled,
// string-keyed segment of 2^16 are popped and pushed back at the front.
// The items entered in batches of 64 random keys, so what a pop takes is
// spread over the key-map as an aged segment's cold end is.
func BenchmarkSegmentPop(b *testing.B) {
	const n = 1 << 16
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("b=%d", size), func(b *testing.B) {
			seg := newSegment[string, string](5, nil, twothree.NewNodePool[string, string]())
			rng := rand.New(rand.NewSource(1))
			ids := rng.Perm(n)
			for i := 0; i < n; i += 64 {
				keys := make([]string, 64)
				for j := range keys {
					keys[j] = fmt.Sprintf("key:%012d", ids[i+j])
				}
				slices.Sort(keys)
				seg.pushFront(newItems(keys, keys))
			}
			var ms moveScratch[string, string]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg.pushFront(ms.popBack(seg, size))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
		})
	}
}
