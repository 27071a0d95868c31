package esort

import (
	"math/rand"
	"sort"
	"testing"
)

func benchInput(n, universe int) []int {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, n)
	for i := range keys {
		keys[i] = rng.Intn(universe)
	}
	return keys
}

// Low-entropy input: the regime where the entropy sort's O(n·H+n) bound
// beats Θ(n log n) comparison sorting.
func BenchmarkPESortLowEntropy(b *testing.B) {
	keys := benchInput(1<<16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PESort(keys, MedianOfMedians)
	}
}

func BenchmarkPESortHighEntropy(b *testing.B) {
	keys := benchInput(1<<16, 1<<30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PESort(keys, MedianOfMedians)
	}
}

func BenchmarkStdSortBaseline(b *testing.B) {
	keys := benchInput(1<<16, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]int(nil), keys...)
		sort.Ints(cp)
	}
}

func BenchmarkPPivot(b *testing.B) {
	keys := benchInput(1<<16, 1<<30)
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PPivot(keys, idx)
	}
}
