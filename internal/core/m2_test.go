package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

func TestM2SequentialModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	ref := map[int]int{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(300)
		switch rng.Intn(4) {
		case 0:
			old, existed := m.Insert(k, step)
			want, wantExisted := ref[k]
			if existed != wantExisted || (existed && old != want) {
				t.Fatalf("step %d: Insert(%d) = (%d,%v), want (%d,%v)", step, k, old, existed, want, wantExisted)
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
	}
	m.Quiesce()
	if m.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestM2ConcurrentDisjointRanges(t *testing.T) {
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	const clients = 8
	const opsPerClient = 3000
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 100)))
			base := c * 1000
			ref := map[int]int{}
			for step := 0; step < opsPerClient; step++ {
				k := base + rng.Intn(200)
				switch rng.Intn(4) {
				case 0:
					old, existed := m.Insert(k, step)
					want, wantExisted := ref[k]
					if existed != wantExisted || (existed && old != want) {
						errs <- errf("client %d step %d: Insert(%d) = (%d,%v), want (%d,%v)", c, step, k, old, existed, want, wantExisted)
						return
					}
					ref[k] = step
				case 1:
					got, ok := m.Delete(k)
					want, wantOK := ref[k]
					if ok != wantOK || (ok && got != want) {
						errs <- errf("client %d step %d: Delete(%d) = (%d,%v), want (%d,%v)", c, step, k, got, ok, want, wantOK)
						return
					}
					delete(ref, k)
				default:
					got, ok := m.Get(k)
					want, wantOK := ref[k]
					if ok != wantOK || (ok && got != want) {
						errs <- errf("client %d step %d: Get(%d) = (%d,%v), want (%d,%v)", c, step, k, got, ok, want, wantOK)
						return
					}
				}
			}
			errs <- nil
		}(c)
	}
	wg.Wait()
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	m.Quiesce()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.Batches() == 0 {
		t.Fatal("no batches processed")
	}
}

func TestM2DuplicateHotKeys(t *testing.T) {
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	const clients = 16
	const rounds = 1500
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := i % 3
				switch i % 5 {
				case 0:
					m.Insert(k, c*rounds+i)
				case 4:
					m.Delete(k)
				default:
					m.Get(k)
				}
			}
		}(c)
	}
	wg.Wait()
	m.Quiesce()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := m.Len(); n > 3 {
		t.Fatalf("Len = %d, want <= 3", n)
	}
}

// TestM2GrowShrink grows the map well past the first slab (forcing final
// slab creation, pipelined segment runs and terminal growth), then shrinks
// it to empty (forcing hole cascades and terminal removal).
func TestM2GrowShrink(t *testing.T) {
	m := NewM2[int, int](Config{P: 2})
	defer m.Close()
	const n = 3000
	var wg sync.WaitGroup
	const clients = 6
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if _, existed := m.Insert(i, i*7); existed {
					t.Errorf("Insert(%d) claims existed", i)
				}
			}
		}(c)
	}
	wg.Wait()
	m.Quiesce()
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Every item present with its value.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if v, ok := m.Get(i); !ok || v != i*7 {
					t.Errorf("Get(%d) = (%d,%v)", i, v, ok)
				}
			}
		}(c)
	}
	wg.Wait()
	m.Quiesce()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Shrink to empty.
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += clients {
				if v, ok := m.Delete(i); !ok || v != i*7 {
					t.Errorf("Delete(%d) = (%d,%v)", i, v, ok)
				}
			}
		}(c)
	}
	wg.Wait()
	m.Quiesce()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reusable after emptying.
	if _, existed := m.Insert(42, 1); existed {
		t.Fatal("insert into emptied map claims existed")
	}
	if v, ok := m.Get(42); !ok || v != 1 {
		t.Fatal("reuse after emptying failed")
	}
}

// TestM2SmallMapInsertPlacement: while M2 has no final slab, a brand-new item
// enters at the front of the first slab's last segment, the segments before
// it stay full and untouched, and the item S[m-1] cannot hold — its least
// recent — is what opens S[m]. P = 2 gives m = 3: capacities 2, 4, 16.
func TestM2SmallMapInsertPlacement(t *testing.T) {
	m := NewM2[int, int](Config{P: 2})
	defer m.Close()
	check := func(want ...[]int) {
		t.Helper()
		m.Quiesce()
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		segs := slices.Clone(m.first.segs)
		for _, f := range m.fsegs {
			segs = append(segs, f.seg)
		}
		if len(segs) != len(want) {
			t.Fatalf("%d segments, want %d", len(segs), len(want))
		}
		for k, seg := range segs {
			if got := recencyKeys(seg); !slices.Equal(got, want[k]) {
				t.Fatalf("S[%d] = %v, want %v", k, got, want[k])
			}
		}
	}
	for i := 1; i <= 10; i++ {
		m.Insert(i, i)
	}
	check([]int{3, 2}, []int{7, 6, 5, 4}, []int{10, 9, 8, 1})
	for i := 11; i <= 22; i++ {
		m.Insert(i, i)
	}
	check([]int{3, 2}, []int{7, 6, 5, 4}, []int{22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8, 1})
	m.Insert(23, 23)
	check([]int{3, 2}, []int{7, 6, 5, 4}, []int{23, 22, 21, 20, 19, 18, 17, 16, 15, 14, 13, 12, 11, 10, 9, 8}, []int{1})
	if m.Len() != 23 {
		t.Fatalf("Len = %d, want 23", m.Len())
	}
}

func TestM2GroupSemanticsSequential(t *testing.T) {
	m := NewM2[string, int](Config{P: 2})
	defer m.Close()
	if _, existed := m.Insert("x", 1); existed {
		t.Fatal("fresh insert claims existed")
	}
	if old, existed := m.Insert("x", 2); !existed || old != 1 {
		t.Fatalf("second insert = (%d,%v)", old, existed)
	}
	if v, ok := m.Delete("x"); !ok || v != 2 {
		t.Fatalf("delete = (%d,%v)", v, ok)
	}
	if _, ok := m.Get("x"); ok {
		t.Fatal("get after delete found item")
	}
	if v, ok := m.Delete("x"); ok || v != 0 {
		t.Fatal("double delete succeeded")
	}
}

// TestM2FilterBound checks Lemma 16's companion property: the filter never
// exceeds 2p² entries (the interface only admits a batch of at most p²
// when the filter holds at most p²).
func TestM2FilterBound(t *testing.T) {
	m := NewM2[int, int](Config{P: 2})
	defer m.Close()
	bound := 2 * m.cfg.P * m.cfg.P
	stop := make(chan struct{})
	var maxSeen int
	var mu sync.Mutex
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			if s := m.FilterSize(); s > 0 {
				mu.Lock()
				if s > maxSeen {
					maxSeen = s
				}
				mu.Unlock()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < 4000; i++ {
				k := rng.Intn(10000)
				switch i % 3 {
				case 0:
					m.Insert(k, i)
				case 1:
					m.Get(k)
				default:
					m.Delete(k)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	m.Quiesce()
	mu.Lock()
	defer mu.Unlock()
	if maxSeen > bound {
		t.Fatalf("filter reached %d entries, bound %d", maxSeen, bound)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestM2HighPriorityUsed confirms the final slab actually runs on the
// high-priority class of the weak-priority pool.
func TestM2HighPriorityUsed(t *testing.T) {
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	for i := 0; i < 5000; i++ {
		m.Insert(i, i)
	}
	m.Quiesce()
	st := m.SchedStats()
	if st.HighRuns == 0 {
		t.Fatal("final slab never ran at high priority")
	}
	if st.Executed <= st.HighRuns {
		t.Fatal("no low-priority (interface) runs recorded")
	}
}
