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
)

// grain is the default sequential cutoff for parallel loops.
const grain = 256

// maxProcs caps the fan-out of parallel loops. It is read once at start-up.
var maxProcs = runtime.GOMAXPROCS(0)

// MaxProcs reports the fan-out limit.
func MaxProcs() int { return maxProcs }

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
