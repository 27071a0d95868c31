package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
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

func TestReduce(t *testing.T) {
	got := Reduce(1000, 64, 0, func(i int) int { return i }, func(a, b int) int { return a + b })
	if got != 999*1000/2 {
		t.Fatalf("Reduce = %d", got)
	}
	if Reduce(0, 1, 42, func(int) int { return 0 }, func(a, b int) int { return a + b }) != 42 {
		t.Fatal("Reduce of empty range should return zero value")
	}
}

func TestPrefixSumMatchesSequential(t *testing.T) {
	f := func(raw []uint8) bool {
		xs := make([]int, len(raw))
		for i, r := range raw {
			xs[i] = int(r)
		}
		out := PrefixSum(xs)
		if len(out) != len(xs)+1 {
			return false
		}
		sum := 0
		for i, x := range xs {
			if out[i] != sum {
				return false
			}
			sum += x
		}
		return out[len(xs)] == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPrefixSumLargeParallelPath(t *testing.T) {
	n := 200000
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i % 7
	}
	out := PrefixSum(xs)
	sum := 0
	for i := 0; i < n; i++ {
		if out[i] != sum {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], sum)
		}
		sum += xs[i]
	}
	if out[n] != sum {
		t.Fatalf("total = %d, want %d", out[n], sum)
	}
}

func TestSetMaxProcs(t *testing.T) {
	old := MaxProcs()
	defer SetMaxProcs(old)
	SetMaxProcs(1)
	if MaxProcs() != 1 {
		t.Fatal("SetMaxProcs(1) not applied")
	}
	// With one proc, Do must still run both closures (sequentially).
	ran := 0
	Do(func() { ran++ }, func() { ran++ })
	if ran != 2 {
		t.Fatal("sequential Do incomplete")
	}
	SetMaxProcs(0) // reset to GOMAXPROCS
	if MaxProcs() < 1 {
		t.Fatal("reset failed")
	}
}
