package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
)

func TestIaconoModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewIacono[int, int](nil)
	ref := map[int]int{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(500)
		switch rng.Intn(4) {
		case 0:
			old, existed := m.Insert(k, step)
			wantOld, wantExisted := ref[k], false
			if _, ok := ref[k]; ok {
				wantExisted = true
			}
			if existed != wantExisted || (existed && old != wantOld) {
				t.Fatalf("step %d: Insert(%d) = (%d,%v), want (%d,%v)", step, k, old, existed, wantOld, wantExisted)
			}
			ref[k] = step
		case 1:
			got, ok := m.Delete(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Delete(%d) = (%d,%v), want (%d,%v)", step, k, got, ok, want, wantOK)
			}
			delete(ref, k)
		default:
			got, ok := m.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, k, got, ok, want, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
		}
		if step%999 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestIaconoWorkingSetProperty verifies the structure's defining property:
// after an item is accessed, immediately re-accessing it is cheap, and
// accessing an item with recency r costs O(1 + log r) tree work.
func TestIaconoWorkingSetProperty(t *testing.T) {
	cnt := &metrics.Counter{}
	m := NewIacono[int, int](cnt)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}
	// Touch items 0..r-1, then measure the cost of re-accessing item 0
	// (recency exactly r).
	costAt := func(r int) int64 {
		m.Get(0)
		for i := 1; i < r; i++ {
			m.Get(i % n)
		}
		before := cnt.Total()
		m.Get(0)
		return cnt.Total() - before
	}
	c4 := costAt(4)
	c256 := costAt(256)
	cBig := costAt(n / 2)
	if c4 > c256 || c256 > cBig {
		t.Fatalf("costs not monotone in recency: %d, %d, %d", c4, c256, cBig)
	}
	// Cost for recency r should scale like log r, not like n. Allow a
	// generous constant: cost(n/2) / cost(4) should be far below (n/2)/4.
	if cBig > 64*c4 {
		t.Fatalf("recency-%d access cost %d too high vs recency-4 cost %d", n/2, cBig, c4)
	}
	// And the absolute cost should be around log^1 r tree nodes, i.e. far
	// less than n for a recency-n/2 access.
	if cBig > int64(200*math.Log2(float64(n))) {
		t.Fatalf("recency-%d access cost %d not logarithmic", n/2, cBig)
	}
}

func TestIaconoDeleteFillsHoles(t *testing.T) {
	m := NewIacono[int, int](nil)
	for i := 0; i < 300; i++ {
		m.Insert(i, i)
	}
	for i := 0; i < 300; i += 2 {
		if _, ok := m.Delete(i); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after Delete(%d): %v", i, err)
		}
	}
	for i := 1; i < 300; i += 2 {
		if _, ok := m.Get(i); !ok {
			t.Fatalf("survivor %d lost", i)
		}
	}
	if m.Len() != 150 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestIaconoEachInKeyOrder: Each visits every item once, in ascending key
// order across the segments, and stops when its callback returns false.
func TestIaconoEachInKeyOrder(t *testing.T) {
	m := NewIacono[int, int](nil)
	for _, i := range rand.New(rand.NewSource(3)).Perm(50) {
		m.Insert(i, i*2)
	}
	if len(m.Segments()) < 3 {
		t.Fatalf("50 items in %d segments: the merge is not exercised", len(m.Segments()))
	}
	var keys []int
	m.Each(func(k, v int) bool {
		if v != k*2 {
			t.Fatalf("Each(%d) = %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != 50 {
		t.Fatalf("Each visited %d items", len(keys))
	}
	for i, k := range keys {
		if k != i {
			t.Fatalf("Each visited %v, not the keys in order", keys)
		}
	}
	count := 0
	m.Each(func(int, int) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early-terminated Each visited %d", count)
	}
}

// TestIaconoRecencyOrderMatchesLRU is the placement oracle: after every
// operation the segments' recency lists, concatenated, are the access
// sequence's LRU order (an insert or a hit makes a key the most recent, a
// delete drops it), and every segment but the last is full.
func TestIaconoRecencyOrderMatchesLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewIacono[int, int](nil)
	var lru []int // most recent first
	touch := func(k int) {
		lru = slices.DeleteFunc(lru, func(x int) bool { return x == k })
		lru = slices.Insert(lru, 0, k)
	}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(300)
		present := slices.Contains(lru, k)
		switch rng.Intn(5) {
		case 0, 1:
			m.Insert(k, step)
			touch(k)
		case 2, 3:
			if _, ok := m.Get(k); ok != present {
				t.Fatalf("step %d: Get(%d) found = %v, want %v", step, k, ok, present)
			}
			if present {
				touch(k)
			}
		default:
			if _, ok := m.Delete(k); ok != present {
				t.Fatalf("step %d: Delete(%d) found = %v, want %v", step, k, ok, present)
			}
			lru = slices.DeleteFunc(lru, func(x int) bool { return x == k })
		}
		var got []int
		for i, seg := range m.segs {
			keys := recencyKeys(seg)
			if i < len(m.segs)-1 && len(keys) != capOf(i) {
				t.Fatalf("step %d: segment %d holds %d, want %d", step, i, len(keys), capOf(i))
			}
			got = append(got, keys...)
		}
		if !slices.Equal(got, lru) {
			t.Fatalf("step %d: recency order %v, want %v", step, got, lru)
		}
	}
}

func BenchmarkESortLowEntropy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int, 1<<14)
	for i := range keys {
		keys[i] = rng.Intn(8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ESort(keys)
	}
}
