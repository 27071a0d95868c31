package core

import (
	"math/rand"
	"sync"
	"testing"
)

func TestBatchedTreeSequentialModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBatchedTree[int, int](4, nil)
	defer b.Close()
	ref := map[int]int{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(300)
		switch rng.Intn(4) {
		case 0:
			old, existed := b.Insert(k, step)
			want, wantExisted := ref[k]
			if existed != wantExisted || (existed && old != want) {
				t.Fatalf("step %d: Insert(%d) mismatch: got (%d,%v) want (%d,%v)", step, k, old, existed, want, wantExisted)
			}
			ref[k] = step
		case 1:
			got, ok := b.Delete(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Delete(%d) mismatch", step, k)
			}
			delete(ref, k)
		default:
			got, ok := b.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Get(%d) mismatch", step, k)
			}
		}
		if b.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, b.Len(), len(ref))
		}
	}
}

func TestBatchedTreeConcurrentDisjoint(t *testing.T) {
	b := NewBatchedTree[int, int](4, nil)
	defer b.Close()
	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			base := c * 1000
			ref := map[int]int{}
			for step := 0; step < 3000; step++ {
				k := base + rng.Intn(150)
				switch rng.Intn(3) {
				case 0:
					b.Insert(k, step)
					ref[k] = step
				case 1:
					got, ok := b.Delete(k)
					want, wantOK := ref[k]
					if ok != wantOK || (ok && got != want) {
						t.Errorf("client %d: Delete(%d) mismatch", c, k)
						return
					}
					delete(ref, k)
				default:
					got, ok := b.Get(k)
					want, wantOK := ref[k]
					if ok != wantOK || (ok && got != want) {
						t.Errorf("client %d: Get(%d) mismatch", c, k)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}
