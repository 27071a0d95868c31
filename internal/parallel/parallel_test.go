package parallel

import (
	"sync/atomic"
	"testing"
)

func TestDoRunsBoth(t *testing.T) {
	var a, b atomic.Bool
	Do(func() { a.Store(true) }, func() { b.Store(true) })
	if !a.Load() || !b.Load() {
		t.Fatal("Do skipped a branch")
	}
}

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 255, 256, 257, 100000} {
		seen := make([]atomic.Bool, n)
		For(n, 16, func(i int) {
			if seen[i].Swap(true) {
				t.Errorf("index %d visited twice", i)
			}
		})
		for i := range seen {
			if !seen[i].Load() {
				t.Fatalf("n=%d: index %d not visited", n, i)
			}
		}
	}
}

func TestForRangeChunksPartition(t *testing.T) {
	var total atomic.Int64
	ForRange(10000, 100, func(lo, hi int) {
		if lo >= hi {
			t.Errorf("empty chunk [%d,%d)", lo, hi)
		}
		total.Add(int64(hi - lo))
	})
	if total.Load() != 10000 {
		t.Fatalf("covered %d of 10000", total.Load())
	}
}
