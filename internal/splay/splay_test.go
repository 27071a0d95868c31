package splay

import (
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

func TestModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int, int](nil)
	ref := map[int]int{}
	for step := 0; step < 30000; step++ {
		k := rng.Intn(500)
		switch rng.Intn(4) {
		case 0:
			old, existed := tr.Insert(k, step)
			want, wantExisted := ref[k]
			if existed != wantExisted || (existed && old != want) {
				t.Fatalf("step %d: Insert(%d) mismatch", step, k)
			}
			ref[k] = step
		case 1:
			got, ok := tr.Delete(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Delete(%d) mismatch", step, k)
			}
			delete(ref, k)
		default:
			got, ok := tr.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Get(%d) mismatch", step, k)
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(ref))
		}
		if step%2999 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Each visits everything in order.
	n, lastKey := 0, -1
	tr.Each(func(k, v int) {
		if k <= lastKey {
			t.Fatal("Each out of order")
		}
		lastKey = k
		n++
	})
	if n != tr.Len() {
		t.Fatalf("Each visited %d of %d", n, tr.Len())
	}
}

// TestSplayAccessedToRoot verifies the defining splay behavior.
func TestSplayAccessedToRoot(t *testing.T) {
	tr := New[int, int](nil)
	for i := 0; i < 1000; i++ {
		tr.Insert(i, i)
	}
	tr.Get(500)
	if tr.root.key != 500 {
		t.Fatalf("root is %d after Get(500)", tr.root.key)
	}
}

// TestSplayTemporalLocalityCheap verifies the amortized working-set-like
// behavior: repeated access to a small hot set does far less work per op
// than uniform access over a large tree.
func TestSplayTemporalLocalityCheap(t *testing.T) {
	cnt := &metrics.Counter{}
	tr := New[int, int](cnt)
	const n = 1 << 15
	for i := 0; i < n; i++ {
		tr.Insert(i, i)
	}
	rng := rand.New(rand.NewSource(2))
	cnt.Reset()
	const ops = 20000
	for i := 0; i < ops; i++ {
		tr.Get(rng.Intn(8)) // hot set of 8
	}
	hotWork := cnt.Total()
	cnt.Reset()
	for i := 0; i < ops; i++ {
		tr.Get(rng.Intn(n))
	}
	uniWork := cnt.Total()
	if hotWork*3 > uniWork {
		t.Fatalf("hot work %d not much cheaper than uniform %d", hotWork, uniWork)
	}
}

func TestDeleteRoot(t *testing.T) {
	tr := New[int, string](nil)
	tr.Insert(2, "b")
	tr.Insert(1, "a")
	tr.Insert(3, "c")
	if v, ok := tr.Delete(2); !ok || v != "b" {
		t.Fatal("delete middle failed")
	}
	if v, ok := tr.Get(1); !ok || v != "a" {
		t.Fatal("left survivor lost")
	}
	if v, ok := tr.Get(3); !ok || v != "c" {
		t.Fatal("right survivor lost")
	}
	if _, ok := tr.Delete(2); ok {
		t.Fatal("double delete succeeded")
	}
	tr.Delete(1)
	tr.Delete(3)
	if tr.Len() != 0 {
		t.Fatal("tree not empty")
	}
	if _, ok := tr.Get(1); ok {
		t.Fatal("empty tree Get succeeded")
	}
}
