package core

import (
	"math/rand"
	"sort"
	"testing"
)

func TestM0OrderedQueries(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	m := NewM0[int, int](nil)
	ref := map[int]int{}
	for i := 0; i < 2000; i++ {
		k := rng.Intn(5000)
		m.Insert(k, k*2)
		ref[k] = k * 2
		// Interleave accesses so items scatter across segments by recency.
		if i%3 == 0 {
			m.Get(rng.Intn(5000))
		}
	}
	var got []int
	m.Each(func(k, v int) bool {
		if v != k*2 {
			t.Fatalf("Each(%d) = %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if !sort.IntsAreSorted(got) {
		t.Fatal("Each not in key order")
	}
	if len(got) != len(ref) {
		t.Fatalf("Each visited %d of %d", len(got), len(ref))
	}
	// Early termination.
	count := 0
	m.Each(func(k, v int) bool { count++; return count < 5 })
	if count != 5 {
		t.Fatalf("early-terminated Each visited %d", count)
	}
}

func TestM1ItemsSnapshot(t *testing.T) {
	m := NewM1[int, int](Config{P: 2})
	defer m.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		m.Insert(i, i+1)
	}
	for i := 0; i < n; i += 7 {
		m.Get(i) // shuffle recencies across segments
	}
	var keys []int
	m.Items(func(k, v int) bool {
		if v != k+1 {
			t.Fatalf("Items(%d) = %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != n || !sort.IntsAreSorted(keys) {
		t.Fatalf("snapshot has %d keys, sorted=%v", len(keys), sort.IntsAreSorted(keys))
	}
}

func TestM2ItemsSnapshot(t *testing.T) {
	m := NewM2[int, int](Config{P: 2})
	defer m.Close()
	const n = 3000
	for i := 0; i < n; i++ {
		m.Insert(i, i+1)
	}
	for i := 0; i < n; i += 7 {
		m.Get(i)
	}
	m.Quiesce()
	var keys []int
	m.Items(func(k, v int) bool {
		if v != k+1 {
			t.Fatalf("Items(%d) = %d", k, v)
		}
		keys = append(keys, k)
		return true
	})
	if len(keys) != n || !sort.IntsAreSorted(keys) {
		t.Fatalf("snapshot has %d keys, sorted=%v", len(keys), sort.IntsAreSorted(keys))
	}
}
