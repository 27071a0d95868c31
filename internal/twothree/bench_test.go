package twothree

import (
	"fmt"
	"math/rand"
	"testing"
)

func benchTree(n int) (*Tree[int, int], []int) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int, int](nil)
	keys := sortedDistinct(rng, n, n*8)
	items := make([]Item[int, int], n)
	for i, k := range keys {
		items[i] = Item[int, int]{Key: k, Payload: k}
	}
	tr.BatchUpsert(items)
	return tr, keys
}

func BenchmarkGet(b *testing.B) {
	tr, keys := benchTree(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(keys[i%len(keys)])
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	tr, _ := benchTree(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := 1<<30 + i
		tr.Insert(k, i)
		tr.Delete(k)
	}
}

func BenchmarkBatchGet1k(b *testing.B) {
	tr, keys := benchTree(1 << 16)
	batch := keys[:1024]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BatchGet(batch)
	}
}

// BenchmarkBatchKernel is the update a shard issues per cut: a sorted
// batch of b pre-built leaves at random positions goes into a pooled
// string-keyed tree of n items (BatchInsertLeaves) and comes out again
// (BatchDeleteInto), cycling through 32 different batches.
func BenchmarkBatchKernel(b *testing.B) {
	for _, n := range []int{1 << 8, 1 << 12, 1 << 18} {
		for _, size := range []int{16, 64, 1024} {
			b.Run(fmt.Sprintf("n=%d/b=%d", n, size), func(b *testing.B) {
				benchBatchKernel(b, n, size)
			})
		}
	}
}

func benchBatchKernel(b *testing.B, n, size int) {
	type leaf = Node[string, int]
	key := func(id int) string { return fmt.Sprintf("k%08d", id) }
	tr := NewPooled[string, int](nil, NewNodePool[string, int]())
	resident := make([]*leaf, n)
	for i := range resident {
		resident[i] = NewLeaf(key(8*i), i) // ids that are multiples of 8
	}
	tr.BatchInsertLeaves(resident)
	rng := rand.New(rand.NewSource(1))
	batches := make([][]*leaf, 32)
	keys := make([][]string, len(batches))
	for j := range batches {
		for _, id := range sortedDistinct(rng, size, 7*n) {
			k := key(id/7*8 + id%7 + 1) // the other ids below 8n
			batches[j] = append(batches[j], NewLeaf(k, id))
			keys[j] = append(keys[j], k)
		}
	}
	out := make([]*leaf, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(batches)
		tr.BatchInsertLeaves(batches[j])
		tr.BatchDeleteInto(keys[j], out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*2*size), "ns/key-op")
}

func BenchmarkRankWalk(b *testing.B) {
	tr, keys := benchTree(1 << 16)
	leaves := tr.BatchGet(keys[:4096])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rank(leaves[i%len(leaves)], byKey)
	}
}

func BenchmarkSeqTransfer(b *testing.B) {
	s := NewSeq[int, int](nil)
	s.PushBackLeaves(mint(span(0, 1<<14, 1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := s.PopBack(64, nil)
		s.PushFrontLeaves(moved)
	}
}
