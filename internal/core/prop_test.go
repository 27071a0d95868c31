package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestQuickM0MatchesMap: property test — any operation sequence on M0
// produces the same results as a builtin map.
func TestQuickM0MatchesMap(t *testing.T) {
	f := func(raw []uint16) bool {
		m := NewM0[int, int](nil)
		ref := map[int]int{}
		for step, r := range raw {
			k := int(r % 64)
			switch (r / 64) % 3 {
			case 0:
				old, existed := m.Insert(k, step)
				want, wantOK := ref[k]
				if existed != wantOK || (existed && old != want) {
					return false
				}
				ref[k] = step
			case 1:
				got, ok := m.Delete(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
				delete(ref, k)
			default:
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
			}
		}
		return m.CheckInvariants() == nil && m.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickM1SingleClient: property test — a single-client M1 behaves like
// a builtin map for any operation sequence (small key space maximizes
// group-operation combining).
func TestQuickM1SingleClient(t *testing.T) {
	f := func(raw []uint16) bool {
		m := NewM1[int, int](Config{P: 2})
		defer m.Close()
		ref := map[int]int{}
		for step, r := range raw {
			k := int(r % 16)
			switch (r / 16) % 3 {
			case 0:
				old, existed := m.Insert(k, step)
				want, wantOK := ref[k]
				if existed != wantOK || (existed && old != want) {
					return false
				}
				ref[k] = step
			case 1:
				got, ok := m.Delete(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
				delete(ref, k)
			default:
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickM2SingleClient: the same property for the pipelined M2.
func TestQuickM2SingleClient(t *testing.T) {
	f := func(raw []uint16) bool {
		m := NewM2[int, int](Config{P: 2})
		defer m.Close()
		ref := map[int]int{}
		for step, r := range raw {
			k := int(r % 16)
			switch (r / 16) % 3 {
			case 0:
				old, existed := m.Insert(k, step)
				want, wantOK := ref[k]
				if existed != wantOK || (existed && old != want) {
					return false
				}
				ref[k] = step
			case 1:
				got, ok := m.Delete(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
				delete(ref, k)
			default:
				got, ok := m.Get(k)
				want, wantOK := ref[k]
				if ok != wantOK || (ok && got != want) {
					return false
				}
			}
		}
		m.Quiesce()
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFeedBuffer covers the bunch-cutting rules of Section 6.1.
func TestFeedBuffer(t *testing.T) {
	f := newFeedBuffer[int](4)
	f.add([]int{1, 2, 3})
	if f.len() != 3 {
		t.Fatalf("len = %d", f.len())
	}
	// Top up the last bunch, then spill into new ones.
	f.add([]int{4, 5, 6, 7, 8, 9})
	if f.len() != 9 {
		t.Fatalf("len = %d", f.len())
	}
	// First bunch has exactly 4 (bunch cap).
	got := f.takeInto(1, nil)
	if len(got) != 4 || got[0] != 1 || got[3] != 4 {
		t.Fatalf("take(1) = %v", got)
	}
	// Taking more bunches than exist drains the buffer.
	got = f.takeInto(10, nil)
	if len(got) != 5 || got[0] != 5 || got[4] != 9 {
		t.Fatalf("take(10) = %v", got)
	}
	if f.len() != 0 {
		t.Fatalf("len = %d after drain", f.len())
	}
	if f.takeInto(1, nil) != nil {
		t.Fatal("take on empty returned data")
	}
}

func TestFeedBufferQuickOrderPreserved(t *testing.T) {
	f := func(sizes []uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		fb := newFeedBuffer[int](capacity)
		next := 0
		var want []int
		for _, s := range sizes {
			batch := make([]int, s%32)
			for i := range batch {
				batch[i] = next
				want = append(want, next)
				next++
			}
			fb.add(batch)
		}
		var got []int
		for fb.len() > 0 {
			got = append(got, fb.takeInto(1, nil)...)
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestM1WorkTracksWSBound is the work-bound property at test scale for
// three very different workloads: the ratio of measured work to W_L must
// stay within one small constant band.
func TestM1WorkTracksWSBound(t *testing.T) {
	if testing.Short() {
		t.Skip("work-bound property is slow")
	}
	rng := rand.New(rand.NewSource(11))
	ratios := map[string]float64{}
	for name, keys := range map[string][]int{
		"hot":     workload.RecencyBoundedKeys(rng, 20000, 1<<20, 8),
		"zipf":    workload.ZipfKeys(rng, 20000, 4096, 1.1),
		"uniform": workload.UniformKeys(rng, 20000, 4096),
	} {
		cnt := &metrics.Counter{}
		m := NewM1[int, int](Config{P: 4, Counter: cnt, RecordLinearization: true})
		for _, k := range keys {
			m.Insert(k, k)
		}
		for _, k := range keys {
			m.Get(k)
		}
		lin := m.DrainLinearization()
		accs := make([]workload.Access[int], len(lin))
		for i, op := range lin {
			accs[i] = workload.Access[int]{Kind: workload.AccessKind(op.Kind), Key: op.Key}
		}
		ratios[name] = float64(cnt.Total()) / workload.WSBound(accs)
		t.Logf("%s: work/W_L ratio %.2f", name, ratios[name])
		m.Close()
	}
	for name, r := range ratios {
		if r < 1 || r > 60 {
			t.Fatalf("%s: work/W_L ratio %.1f outside constant band", name, r)
		}
	}
	// Flatness: max/min ratio across wildly different workloads bounded.
	lo, hi := 1e18, 0.0
	for _, r := range ratios {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if hi/lo > 4 {
		t.Fatalf("ratio band too wide: %v", ratios)
	}
}
