// Package parallel provides the dynamic-multithreading primitives of the
// paper's computation model: binary fork/join and parallel loops.
//
// The paper expresses all intra-batch parallelism (batch tree operations,
// entropy sorting, buffer combining) with fork/join on a work-stealing
// runtime; here the Go scheduler plays that role. Every helper falls back to
// sequential execution below a grain size so that the constant-factor cost
// of goroutine creation never dominates the O(log) critical paths the paper
// relies on.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// grain is the default sequential cutoff for parallel loops.
const grain = 256

// maxProcs caps the fan-out of parallel loops.
var maxProcs = int32(runtime.GOMAXPROCS(0))

// SetMaxProcs overrides the fan-out used by For and Do (for experiments
// that sweep p). n < 1 resets to runtime.GOMAXPROCS(0).
func SetMaxProcs(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	atomic.StoreInt32(&maxProcs, int32(n))
}

// MaxProcs reports the current fan-out limit.
func MaxProcs() int { return int(atomic.LoadInt32(&maxProcs)) }

// Do runs f and g, in parallel when the runtime has more than one
// processor available. It is the binary fork/join primitive of the model.
func Do(f, g func()) {
	if MaxProcs() <= 1 {
		f()
		g()
		return
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		g()
	}()
	f()
	wg.Wait()
}

// For runs body(i) for every i in [0, n), splitting the range across up to
// MaxProcs goroutines in contiguous chunks of at least min(grainSize, ...)
// iterations. grainSize <= 0 selects the default grain.
func For(n int, grainSize int, body func(i int)) {
	ForRange(n, grainSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange runs body(lo, hi) over a partition of [0, n) into contiguous
// chunks. Chunks have size at least grainSize (default when <= 0), and at
// most MaxProcs chunks execute concurrently.
func ForRange(n int, grainSize int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grainSize <= 0 {
		grainSize = grain
	}
	p := MaxProcs()
	if p <= 1 || n <= grainSize {
		body(0, n)
		return
	}
	chunks := (n + grainSize - 1) / grainSize
	if chunks > p {
		chunks = p
		grainSize = (n + chunks - 1) / chunks
	}
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += grainSize {
		hi := lo + grainSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Reduce computes the reduction of f(i) over [0, n) with the associative
// combiner comb, in parallel. zero is the identity element.
func Reduce[T any](n int, grainSize int, zero T, f func(i int) T, comb func(a, b T) T) T {
	if n <= 0 {
		return zero
	}
	if grainSize <= 0 {
		grainSize = grain
	}
	p := MaxProcs()
	if p <= 1 || n <= grainSize {
		acc := zero
		for i := 0; i < n; i++ {
			acc = comb(acc, f(i))
		}
		return acc
	}
	chunks := (n + grainSize - 1) / grainSize
	if chunks > p {
		chunks = p
		grainSize = (n + chunks - 1) / chunks
	}
	partial := make([]T, 0, chunks)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += grainSize {
		hi := lo + grainSize
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			acc := zero
			for i := lo; i < hi; i++ {
				acc = comb(acc, f(i))
			}
			mu.Lock()
			partial = append(partial, acc)
			mu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	acc := zero
	for _, v := range partial {
		acc = comb(acc, v)
	}
	return acc
}

// PrefixSum computes, in parallel, out[i] = xs[0]+...+xs[i-1] for
// i in [0, len(xs)] (an exclusive scan) and returns the total. The output
// slice has length len(xs)+1 with out[len(xs)] equal to the total; this is
// the standard prefix-sum building block the paper uses for stable
// partitioning in PESort.
func PrefixSum(xs []int) []int {
	n := len(xs)
	out := make([]int, n+1)
	if n == 0 {
		return out
	}
	p := MaxProcs()
	if p <= 1 || n <= 2*grain {
		sum := 0
		for i, x := range xs {
			out[i] = sum
			sum += x
		}
		out[n] = sum
		return out
	}
	chunks := p
	size := (n + chunks - 1) / chunks
	sums := make([]int, chunks)
	ForRange(n, size, func(lo, hi int) {
		s := 0
		for i := lo; i < hi; i++ {
			s += xs[i]
		}
		sums[lo/size] = s
	})
	running := 0
	for c := 0; c < chunks; c++ {
		s := sums[c]
		sums[c] = running
		running += s
	}
	ForRange(n, size, func(lo, hi int) {
		s := sums[lo/size]
		for i := lo; i < hi; i++ {
			out[i] = s
			s += xs[i]
		}
		if hi == n {
			out[n] = s
		}
	})
	return out
}
