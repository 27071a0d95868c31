package pws

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestAllMapsAgree runs the same random operation sequence through every
// sequential map and checks they agree with the builtin map at each step.
func TestAllMapsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	maps := map[string]Map[int, int]{
		"m0":     NewM0[int, int](nil),
		"iacono": NewIacono[int, int](nil),
		"splay":  NewSplay[int, int](nil),
	}
	ref := map[int]int{}
	for step := 0; step < 10000; step++ {
		k := rng.Intn(200)
		op := rng.Intn(4)
		want, wantOK := ref[k]
		for name, m := range maps {
			switch op {
			case 0:
				old, existed := m.Insert(k, step)
				if existed != wantOK || (existed && old != want) {
					t.Fatalf("step %d %s: Insert(%d) mismatch", step, name, k)
				}
			case 1:
				got, ok := m.Delete(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d %s: Delete(%d) mismatch", step, name, k)
				}
			default:
				got, ok := m.Get(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d %s: Get(%d) mismatch", step, name, k)
				}
			}
		}
		switch op {
		case 0:
			ref[k] = step
		case 1:
			delete(ref, k)
		}
		for name, m := range maps {
			if m.Len() != len(ref) {
				t.Fatalf("step %d %s: Len = %d, want %d", step, name, m.Len(), len(ref))
			}
		}
	}
}

// TestConcurrentMapsAgree runs concurrent clients with disjoint key ranges
// through M1, M2 and the batched tree.
func TestConcurrentMapsAgree(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() ConcurrentMap[int, int]
	}{
		{"m1", func() ConcurrentMap[int, int] { return NewM1[int, int](Options{P: 4}) }},
		{"m2", func() ConcurrentMap[int, int] { return NewM2[int, int](Options{P: 4}) }},
		{"batched-tree", func() ConcurrentMap[int, int] { return NewBatchedTree[int, int](4, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mk()
			defer m.Close()
			var wg sync.WaitGroup
			for c := 0; c < 6; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(c)))
					base := c * 10000
					ref := map[int]int{}
					for i := 0; i < 2000; i++ {
						k := base + rng.Intn(100)
						switch rng.Intn(3) {
						case 0:
							m.Insert(k, i)
							ref[k] = i
						case 1:
							got, ok := m.Delete(k)
							want, wantOK := ref[k]
							if ok != wantOK || (ok && got != want) {
								t.Errorf("%s client %d: Delete(%d) mismatch", tc.name, c, k)
								return
							}
							delete(ref, k)
						default:
							got, ok := m.Get(k)
							want, wantOK := ref[k]
							if ok != wantOK || (ok && got != want) {
								t.Errorf("%s client %d: Get(%d) mismatch", tc.name, c, k)
								return
							}
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}

// TestWorkBoundSmoke is a fast version of experiment E4/E6: the measured
// work of M1 on a high-locality workload must stay within a constant
// factor of the working-set bound W_L.
func TestWorkBoundSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cnt := &WorkCounter{}
	m := NewM1[int, int](Options{P: 4, Counter: cnt, RecordLinearization: true})
	defer m.Close()
	keys := workload.RecencyBoundedKeys(rng, 30000, 1<<20, 16)
	for _, k := range keys {
		m.Insert(k, k)
	}
	for _, k := range keys {
		m.Get(k)
	}
	ops := m.DrainLinearization()
	acc := make([]workload.Access[int], len(ops))
	for i, op := range ops {
		acc[i] = workload.Access[int]{Kind: workload.AccessKind(op.Kind), Key: op.Key}
	}
	wl := workload.WSBound(acc)
	measured := float64(cnt.Total())
	ratio := measured / wl
	t.Logf("measured work %.0f, W_L %.0f, ratio %.2f", measured, wl, ratio)
	if ratio > 40 {
		t.Fatalf("work/W_L ratio %.1f is not a constant-factor bound", ratio)
	}
}

func TestLockedAdapter(t *testing.T) {
	m := Locked[int, int](NewSplay[int, int](nil))
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Insert(c*1000+i, i)
			}
		}(c)
	}
	wg.Wait()
	if m.Len() != 2000 {
		t.Fatalf("Len = %d", m.Len())
	}
}

// TestShardedByteBudget checks the library byte budget through the public
// API: ShardedOptions.MaxBytes is the map's one budget, reported back by
// Mem and enforced across the shards, and every key it evicts is counted.
func TestShardedByteBudget(t *testing.T) {
	const budget, n = 256 << 10, 20000
	m := NewSharded[int, int](ShardedOptions{Shards: 4, MaxBytes: budget})
	defer m.Close()
	for k := 0; k < n; k++ {
		m.Insert(k, k)
	}
	m.Quiesce()
	st := m.Mem()
	if st.MaxBytes != budget {
		t.Errorf("Mem().MaxBytes = %d, want %d", st.MaxBytes, budget)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("Mem().Bytes = %d over the %d budget", st.Bytes, st.MaxBytes)
	}
	if st.Evicted == 0 {
		t.Errorf("nothing evicted after %d distinct inserts under a %d-byte budget", n, budget)
	}
	if got := int64(m.Len()) + st.Evicted; got != n {
		t.Errorf("Len %d + Evicted %d = %d, want %d", m.Len(), st.Evicted, got, n)
	}
}
