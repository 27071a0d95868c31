package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/twothree"
)

// BenchmarkSegmentPop is the transfer restore makes between neighbouring
// segments: the b least recent items of a pooled, string-keyed segment of
// 2^16 are popped and pushed back at the front.
// The items entered in batches of 64 random keys, so what a pop takes is
// spread over the key-map as an aged segment's cold end is.
func BenchmarkSegmentPop(b *testing.B) {
	const n = 1 << 16
	for _, size := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("b=%d", size), func(b *testing.B) {
			seg := newSegment[string, string](5, nil, twothree.NewNodePool[string, string]())
			var ms moveScratch[string, string]
			rng := rand.New(rand.NewSource(1))
			ids := rng.Perm(n)
			for i := 0; i < n; i += 64 {
				keys := make([]string, 64)
				for j := range keys {
					keys[j] = fmt.Sprintf("key:%012d", ids[i+j])
				}
				slices.Sort(keys)
				seg.pushFront(ms.newItems(keys, keys))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				seg.pushFront(ms.popBack(seg, size, false))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
		})
	}
}

// BenchmarkM1FreshInsert is what a brand-new key costs M1 with n items
// resident (string keys, as the server has): one Apply of b first-time
// inserts is timed, then the same keys are deleted off the clock so every
// iteration meets the same structure. At these n the deepest segment is
// S[4], S[4] and S[5]; 2^16 is 278 short of filling S[4], so its b = 1024
// cell opens S[5] as well. P = 32 makes a bunch 1024 operations, so each
// Apply is one cut batch.
func BenchmarkM1FreshInsert(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 16, 1 << 18} {
		for _, size := range []int{16, 64, 1024} {
			b.Run(fmt.Sprintf("n=%d/b=%d", n, size), func(b *testing.B) {
				m := NewM1[string, string](Config{P: 32})
				defer m.Close()
				rng := rand.New(rand.NewSource(1))
				ids := rng.Perm(n + size)
				op := func(kind OpKind, id int) Op[string, string] {
					return Op[string, string]{Kind: kind, Key: fmt.Sprintf("key:%012d", id), Val: "v"}
				}
				var res []Result[string]
				for i := 0; i < n; i += 1024 {
					ops := make([]Op[string, string], 0, 1024)
					for _, id := range ids[i:min(i+1024, n)] {
						ops = append(ops, op(OpInsert, id))
					}
					res = m.ApplyInto(ops, res)
				}
				ins := make([]Op[string, string], size)
				del := make([]Op[string, string], size)
				for i, id := range ids[n:] {
					ins[i], del[i] = op(OpInsert, id), op(OpDelete, id)
				}
				m.Quiesce()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res = m.ApplyInto(ins, res)
					m.Quiesce()
					b.StopTimer()
					res = m.ApplyInto(del, res)
					m.Quiesce()
					b.StartTimer()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
			})
		}
	}
}
