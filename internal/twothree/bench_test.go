package twothree

import (
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

func BenchmarkBatchUpsertDelete1k(b *testing.B) {
	tr, _ := benchTree(1 << 16)
	items := make([]Item[int, int], 1024)
	keys := make([]int, 1024)
	for i := range items {
		items[i] = Item[int, int]{Key: 1<<29 + i, Payload: i}
		keys[i] = 1<<29 + i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.BatchUpsert(items)
		tr.BatchDelete(keys)
	}
}

func BenchmarkRankWalk(b *testing.B) {
	tr, keys := benchTree(1 << 16)
	leaves := tr.BatchGet(keys[:4096])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Rank(leaves[i%len(leaves)])
	}
}

func BenchmarkSeqTransfer(b *testing.B) {
	s := NewSeq[int](nil)
	keys := make([]int, 1<<14)
	for i := range keys {
		keys[i] = i
	}
	s.PushBack(keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		moved := s.PopBack(64, nil)
		s.PushFrontLeaves(moved)
	}
}
