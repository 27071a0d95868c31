package core

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSegSnapRandomized drives a segment and its published snapshot
// through random mutation rounds — mixed inserts, deletes and updates,
// published as deltas with occasional forced flat publishes — and checks
// the view against a model map after every publish: point gets, bounded
// and unbounded range reads, and the net size. Enough rounds to exercise
// delta-chain compaction many times over.
func TestSegSnapRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	f := &fseg[int, int]{seg: newSegment[int, int](4, nil, nil)}
	model := map[int]int{}
	const keySpace = 512

	var nilSnap *segSnap[int, int]
	if _, ok := nilSnap.get(7); ok {
		t.Fatal("nil snapshot claims a key")
	}
	if n := nilSnap.netLen(); n != 0 {
		t.Fatalf("nil snapshot netLen = %d", n)
	}
	if out := nilSnap.rangeInto(0, keySpace, 0, nil); len(out) != 0 {
		t.Fatalf("nil snapshot rangeInto = %v", out)
	}

	for round := 0; round < 400; round++ {
		// One round: delete some present keys (some of them re-inserted
		// with a new value — an update, two chronological events on one
		// key), insert some absent ones.
		var events []snapKV[int, int]
		var dels, ins []int
		var insVals []int
		touched := map[int]bool{}
		for i := 0; i < 1+rng.Intn(8); i++ {
			k := rng.Intn(keySpace)
			if touched[k] {
				continue
			}
			touched[k] = true
			if _, ok := model[k]; ok {
				dels = append(dels, k)
				delete(model, k)
				if rng.Intn(2) == 0 { // update: remove then re-add
					ins = append(ins, k)
				}
			} else {
				ins = append(ins, k)
			}
		}
		sortInts(dels)
		sortInts(ins)
		if len(dels) > 0 {
			f.ms.removeItems(f.seg, dels)
			for _, k := range dels {
				events = append(events, snapKV[int, int]{key: k, del: true})
			}
		}
		if len(ins) > 0 {
			insVals = insVals[:0]
			for _, k := range ins {
				v := rng.Intn(1 << 20)
				insVals = append(insVals, v)
				model[k] = v
				events = append(events, snapKV[int, int]{key: k, val: v})
			}
			f.seg.pushFront(newItems(ins, insVals))
		}

		if round%17 == 16 {
			f.publishFlat()
		} else {
			f.publishDelta(events)
		}

		snap := f.snap.Load()
		if snap == nil {
			t.Fatalf("round %d: no snapshot after publish", round)
		}
		if len(snap.deltas) > snapMaxDeltas && rng.Intn(3) == 0 {
			// The reader-side chain compaction: a pure view transform.
			snap = snap.compacted()
			if len(snap.deltas) != 0 || snap.dn != 0 {
				t.Fatalf("round %d: compacted view still has %d deltas", round, len(snap.deltas))
			}
			f.snap.Store(snap)
		}
		if n := snap.netLen(); n != len(model) {
			t.Fatalf("round %d: netLen = %d, model has %d", round, n, len(model))
		}
		for i := 0; i < 32; i++ {
			k := rng.Intn(keySpace)
			v, ok := snap.get(k)
			wv, wok := model[k]
			if ok != wok || (ok && v != wv) {
				t.Fatalf("round %d: get(%d) = (%d,%v), model (%d,%v)", round, k, v, ok, wv, wok)
			}
		}
		lo := rng.Intn(keySpace)
		hi := lo + rng.Intn(keySpace-lo) + 1
		bound := rng.Intn(20) // 0 = unbounded
		var want []KV[int, int]
		for k := lo; k < hi; k++ {
			if v, ok := model[k]; ok {
				want = append(want, KV[int, int]{Key: k, Val: v})
				if bound > 0 && len(want) == bound {
					break
				}
			}
		}
		got := snap.rangeInto(lo, hi, bound, nil)
		if len(got) != len(want) {
			t.Fatalf("round %d: rangeInto(%d,%d,%d) returned %d pairs, want %d", round, lo, hi, bound, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: rangeInto pair %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestM2RangeScansDontDrainFinalSlab is the scan-tail regression test:
// concurrent writers keep M2's final slab busy while a reader pages
// through the whole key space, and the serve-path instrumentation must
// show range batches served while the final slab had in-flight work —
// the retired drainFinalSlab would instead have waited for it to rest.
// Every page is checked structurally, and after the dust settles the
// composed view must agree with a quiesced full scan.
func TestM2RangeScansDontDrainFinalSlab(t *testing.T) {
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				k := rng.Intn(n)
				switch rng.Intn(3) {
				case 0:
					m.Insert(k, k)
				case 1:
					m.Get(k)
				default:
					m.Delete(k)
					m.Insert(k, k)
				}
			}
		}(int64(w + 1))
	}

	deadline := time.Now().Add(10 * time.Second)
	var page []KV[int, int]
	pages := 0
	for {
		lo := 0
		for {
			var more bool
			page, more = m.Range(lo, n, 64, page[:0])
			prev := lo - 1
			for _, kv := range page {
				if kv.Key <= prev || kv.Key >= n {
					t.Fatalf("page from %d: key %d out of order or bounds (prev %d)", lo, kv.Key, prev)
				}
				if kv.Val != kv.Key {
					t.Fatalf("key %d has value %d", kv.Key, kv.Val)
				}
				prev = kv.Key
			}
			if len(page) > 64 {
				t.Fatalf("page of %d pairs exceeds limit 64", len(page))
			}
			pages++
			if len(page) == 0 || !more {
				break
			}
			lo = page[len(page)-1].Key + 1
		}
		if _, busy := m.RangeServeStats(); busy > 0 || time.Now().After(deadline) {
			break
		}
	}
	stop.Store(true)
	wg.Wait()

	serves, busy := m.RangeServeStats()
	if busy == 0 {
		t.Errorf("no range batch observed a busy final slab (%d serves, %d pages): scans are not overlapping final slab work", serves, pages)
	}

	m.Quiesce()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	full, more := m.Range(0, n, 0, nil)
	if more {
		t.Fatal("unbounded full scan reported truncation")
	}
	if len(full) != m.Len() {
		t.Fatalf("quiesced full scan has %d pairs, Len() = %d", len(full), m.Len())
	}
	for i, kv := range full {
		if i > 0 && kv.Key <= full[i-1].Key {
			t.Fatalf("quiesced scan out of order at %d", i)
		}
	}
}

// TestAllocsM2FinalSlabRun bounds the steady-state allocation cost of
// operations that travel the full M2 pipeline — filter, buffered final
// slab segment runs, snapshot publishes — plus a range page against the
// composed view. M2 groups and filter entries are allocated per batch by
// design (they outlive the interface batch), so the ceiling is per
// operation rather than zero; what it guards is the run scratch of
// fseg.runLocked and the snapshot delta path staying amortized-O(1)
// allocations per op. Skipped under -race (inflated counts).
func TestAllocsM2FinalSlabRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}
	ops := make([]Op[int, int], 64)
	rng := rand.New(rand.NewSource(7))
	refill := func() {
		for i := range ops {
			k := rng.Intn(n)
			if i%4 == 0 {
				ops[i] = Op[int, int]{Kind: OpInsert, Key: k, Val: k}
			} else {
				ops[i] = Op[int, int]{Kind: OpGet, Key: k}
			}
		}
	}
	var page []KV[int, int]
	for i := 0; i < 50; i++ { // warm scratch, pools and snapshots
		refill()
		m.Apply(ops)
		page, _ = m.Range(rng.Intn(n), n, 64, page[:0])
	}
	m.Quiesce()
	perBatch := testing.AllocsPerRun(100, func() {
		refill()
		m.Apply(ops)
		page, _ = m.Range(rng.Intn(n), n, 64, page[:0])
		m.Quiesce()
	})
	perOp := perBatch / float64(len(ops))
	// Measured ~17 allocs/op (group frames and their call slices, filter
	// entries, tree leaf/node churn across first slab, filter and final
	// slab, and the immutable snapshot deltas); ceiling ~2x.
	const ceiling = 36.0
	if perOp > ceiling {
		t.Errorf("M2 pipeline churn: %.2f allocs/op (%.0f/batch), ceiling %.1f", perOp, perBatch, ceiling)
	}
}
