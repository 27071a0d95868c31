// Package esort implements the paper's parallel entropy-optimal sort
// PESort (Definition 32), a stable quicksort whose pivot is chosen by the
// parallel pivot algorithm PPivot (Lemma 34), with Runs to group a sorted
// batch's duplicates and Entropy to measure an input. The sequential ESort
// (Definition 29) is a loop over Iacono's working-set structure and lives
// beside it, in core.
//
// Both sort a sequence of n keys with item frequencies q_1..q_u in
// O(n·H + n) work, where H = Σ q_i lg(1/q_i) is the entropy per element —
// asymptotically optimal by the sorting entropy lower bound (Theorem 28).
// This is what lets the working-set maps combine duplicate operations in a
// batch without paying Θ(b log b) for a comparison sort: a batch with many
// duplicates has low entropy and sorts in correspondingly less work.
//
// Sorting is expressed as a permutation: Sort-style functions return idx
// such that keys[idx[0]] <= keys[idx[1]] <= ..., with equal keys kept in
// input order (stability), so callers can group duplicate operations while
// preserving their arrival order.
package esort

import (
	"cmp"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"sort"

	"repro/internal/parallel"
)

// PivotStrategy selects how PESort picks pivots.
type PivotStrategy int

const (
	// MedianOfMedians is the deterministic PPivot of Lemma 34: medians of
	// log-k-sized blocks, sorted, middle taken. Guarantees a pivot in the
	// middle two quartiles.
	MedianOfMedians PivotStrategy = iota
	// StdStable bypasses the entropy sort and uses a Θ(b log b) stable
	// comparison sort. It exists for the ablation experiment (E14): it
	// voids the paper's work bound on duplicate-heavy batches and
	// quantifies what the entropy sort buys.
	StdStable
)

// seqCutoff is the subproblem size below which PESort falls back to a
// stable comparison sort.
const seqCutoff = 64

// insertionMax is the run length below which stableSort insertion-sorts.
const insertionMax = 12

// parCutoff is the subproblem size above which partitioning and recursion
// run in parallel.
const parCutoff = 4096

// PESort is the parallel entropy sort: a stable quicksort with
// quartile-guaranteed pivots. It returns the stable sorting permutation of
// keys. O(n·H + n) work and polylogarithmic span.
func PESort[K cmp.Ordered](keys []K, strat PivotStrategy) []int {
	idx, _ := PESortInto(keys, strat, nil, nil)
	return idx
}

// PESortInto is PESort with caller-provided scratch: idx receives the
// permutation and scratch backs the partitioning; both are grown as
// needed and returned for reuse, which lets the engines sort every cut
// batch without allocating. Pass nil slices to start.
func PESortInto[K cmp.Ordered](keys []K, strat PivotStrategy, idx, scratch []int) (perm, scratchOut []int) {
	n := len(keys)
	if cap(idx) < n {
		idx = make([]int, n)
	}
	idx = idx[:n]
	for i := range idx {
		idx[i] = i
	}
	if n <= 1 {
		return idx, scratch
	}
	if strat == StdStable {
		sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
		return idx, scratch
	}
	if cap(scratch) < n {
		scratch = make([]int, n)
	}
	scratch = scratch[:n]
	qsort(keys, idx, scratch)
	return idx, scratch
}

// quick stably sorts idx (positions into keys) by key, using scratch of the
// same length for partitioning.
func qsort[K cmp.Ordered](keys []K, idx, scratch []int) {
	for {
		n := len(idx)
		if n <= seqCutoff {
			stableSort(keys, idx, scratch)
			return
		}
		pivot := PPivot(keys, idx)
		lo, hi := partition3(keys, idx, scratch, pivot)
		left, right := idx[:lo], idx[hi:]
		ls, rs := scratch[:lo], scratch[hi:]
		if n >= parCutoff {
			parallel.Do(
				func() { qsort(keys, left, ls) },
				func() { qsort(keys, right, rs) },
			)
			return
		}
		// Sequentially recurse into the smaller side, loop on the larger.
		if len(left) < len(right) {
			qsort(keys, left, ls)
			idx, scratch = right, rs
		} else {
			qsort(keys, right, rs)
			idx, scratch = left, ls
		}
	}
}

// stableSort stably sorts idx (positions into keys) by key without
// allocating: insertion sort up to insertionMax, above it a merge sort
// that merges through scratch (at least len(idx) long).
func stableSort[K cmp.Ordered](keys []K, idx, scratch []int) {
	n := len(idx)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			x := idx[i]
			j := i
			for ; j > 0 && keys[x] < keys[idx[j-1]]; j-- {
				idx[j] = idx[j-1]
			}
			idx[j] = x
		}
		return
	}
	mid := n / 2
	stableSort(keys, idx[:mid], scratch)
	stableSort(keys, idx[mid:], scratch)
	if !(keys[idx[mid]] < keys[idx[mid-1]]) {
		return // the halves are already in order
	}
	// Merge the left half (moved to scratch) with the right half in
	// place: the write position never passes the right half's read
	// position, and ties take the left element.
	left := scratch[:mid]
	copy(left, idx[:mid])
	i, j, k := 0, mid, 0
	for i < mid && j < n {
		if keys[idx[j]] < keys[left[i]] {
			idx[k] = idx[j]
			j++
		} else {
			idx[k] = left[i]
			i++
		}
		k++
	}
	copy(idx[k:], left[i:])
}

// partition3 stably partitions idx around pivot into (< pivot), (== pivot),
// (> pivot) using scratch, returning the boundaries of the middle part.
// Parallel (chunked counting + scatter) for large inputs.
func partition3[K cmp.Ordered](keys []K, idx, scratch []int, pivot K) (lo, hi int) {
	n := len(idx)
	if n < parCutoff {
		nl, ne := 0, 0
		for _, i := range idx {
			switch {
			case keys[i] < pivot:
				nl++
			case keys[i] == pivot:
				ne++
			}
		}
		pl, pe, pg := 0, nl, nl+ne
		for _, i := range idx {
			switch {
			case keys[i] < pivot:
				scratch[pl] = i
				pl++
			case keys[i] == pivot:
				scratch[pe] = i
				pe++
			default:
				scratch[pg] = i
				pg++
			}
		}
		copy(idx, scratch[:n])
		return nl, nl + ne
	}
	// Parallel path: per-chunk 3-way counts, exclusive scan, then scatter.
	chunk := (n + parallel.MaxProcs() - 1) / parallel.MaxProcs()
	if chunk < 1024 {
		chunk = 1024
	}
	nchunks := (n + chunk - 1) / chunk
	counts := make([][3]int, nchunks)
	parallel.ForRange(n, chunk, func(lo, hi int) {
		c := lo / chunk
		var cc [3]int
		for _, i := range idx[lo:hi] {
			switch {
			case keys[i] < pivot:
				cc[0]++
			case keys[i] == pivot:
				cc[1]++
			default:
				cc[2]++
			}
		}
		counts[c] = cc
	})
	var tot [3]int
	offsets := make([][3]int, nchunks)
	for c := 0; c < nchunks; c++ {
		offsets[c] = tot
		for j := 0; j < 3; j++ {
			tot[j] += counts[c][j]
		}
	}
	base := [3]int{0, tot[0], tot[0] + tot[1]}
	parallel.ForRange(n, chunk, func(lo, hi int) {
		c := lo / chunk
		p := [3]int{
			base[0] + offsets[c][0],
			base[1] + offsets[c][1],
			base[2] + offsets[c][2],
		}
		for _, i := range idx[lo:hi] {
			var j int
			switch {
			case keys[i] < pivot:
				j = 0
			case keys[i] == pivot:
				j = 1
			default:
				j = 2
			}
			scratch[p[j]] = i
			p[j]++
		}
	})
	parallel.ForRange(n, chunk, func(lo, hi int) {
		copy(idx[lo:hi], scratch[lo:hi])
	})
	return tot[0], tot[0] + tot[1]
}

// PPivot is the parallel pivot algorithm of Lemma 34: split the input into
// blocks of size ~log k, take each block's median (linear-time selection),
// sort the medians, and return their median. The result is guaranteed to
// lie within the middle two quartiles of the input. O(k) work.
func PPivot[K cmp.Ordered](keys []K, idx []int) K {
	k := len(idx)
	bs := bits.Len(uint(k))
	if bs < 1 {
		bs = 1
	}
	nblocks := (k + bs - 1) / bs
	medians := make([]K, nblocks)
	parallel.ForRange(nblocks, 16, func(blo, bhi int) {
		buf := make([]K, 0, bs)
		for b := blo; b < bhi; b++ {
			lo, hi := b*bs, (b+1)*bs
			if hi > k {
				hi = k
			}
			buf = buf[:0]
			for _, i := range idx[lo:hi] {
				buf = append(buf, keys[i])
			}
			medians[b] = quickselect(buf, (len(buf)-1)/2)
		}
	})
	slices.Sort(medians)
	return medians[(len(medians)-1)/2]
}

// quickselect returns the element of rank r (0-based) in buf, reordering
// buf in place. Expected linear time.
func quickselect[K cmp.Ordered](buf []K, r int) K {
	for len(buf) > 1 {
		p := buf[rand.IntN(len(buf))]
		// Three-way partition: buf[:lt] < p, buf[lt:gt] == p, buf[gt:] > p.
		lt, i, gt := 0, 0, len(buf)
		for i < gt {
			switch v := buf[i]; {
			case v < p:
				buf[lt], buf[i] = v, buf[lt]
				lt++
				i++
			case p < v:
				gt--
				buf[i], buf[gt] = buf[gt], v
			default:
				i++
			}
		}
		switch {
		case r < lt:
			buf = buf[:lt]
		case r < gt:
			return p
		default:
			buf, r = buf[gt:], r-gt
		}
	}
	return buf[0]
}

// Runs groups a sorted permutation into runs of equal keys. Each run lists
// the original positions in input (arrival) order — the paper's "combine
// duplicates" step.
func Runs[K cmp.Ordered](keys []K, perm []int) [][]int {
	var out [][]int
	for i := 0; i < len(perm); {
		j := i + 1
		for j < len(perm) && keys[perm[j]] == keys[perm[i]] {
			j++
		}
		out = append(out, perm[i:j])
		i = j
	}
	return out
}

// Entropy returns the empirical entropy per element of keys, in bits:
// H = Σ q_i lg(1/q_i) over distinct-key frequencies q_i.
func Entropy[K cmp.Ordered](keys []K) float64 {
	freq := make(map[K]int, len(keys))
	for _, k := range keys {
		freq[k]++
	}
	n := float64(len(keys))
	h := 0.0
	for _, c := range freq {
		q := float64(c) / n
		h -= q * math.Log2(q)
	}
	return h
}
