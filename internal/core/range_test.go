package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// rangeEngines returns the engines that serve OpRange, by subtest name:
// M1 alone (TestM2RejectsRange covers the other one).
func rangeEngines(t *testing.T) map[string]*M1[int, int] {
	t.Helper()
	return map[string]*M1[int, int]{"m1": NewM1[int, int](Config{P: 4})}
}

func TestRangeBasic(t *testing.T) {
	for name, m := range rangeEngines(t) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			for i := 0; i < 200; i++ {
				m.Insert(i*2, i) // even keys 0..398
			}
			// Full in-bounds page.
			page, more := m.Range(10, 30, 0, nil)
			want := []int{10, 12, 14, 16, 18, 20, 22, 24, 26, 28}
			if len(page) != len(want) || more {
				t.Fatalf("Range(10,30) = %v (more=%v), want keys %v", page, more, want)
			}
			for i, kv := range page {
				if kv.Key != want[i] || kv.Val != want[i]/2 {
					t.Fatalf("page[%d] = %+v, want key %d val %d", i, kv, want[i], want[i]/2)
				}
			}
			// Limit truncation + cursor resume via XLo.
			page, more = m.Range(0, 400, 3, page[:0])
			if len(page) != 3 || !more {
				t.Fatalf("limited Range = %v (more=%v), want 3 pairs + more", page, more)
			}
			if page[0].Key != 0 || page[2].Key != 4 {
				t.Fatalf("limited Range keys = %v", page)
			}
			req := RangeReq[int, int]{Hi: 400, Limit: 3, XLo: true}
			ops := []Op[int, int]{{Kind: OpRange, Key: page[2].Key, Range: &req}}
			res := m.Apply(ops)
			if len(req.Out) != 3 || req.Out[0].Key != 6 || !res[0].OK {
				t.Fatalf("XLo resume = %v (ok=%v), want keys 6,8,10", req.Out, res[0].OK)
			}
			// Empty and inverted ranges.
			if page, more = m.Range(399, 399, 0, page[:0]); len(page) != 0 || more {
				t.Fatalf("empty range = %v, %v", page, more)
			}
			if page, more = m.Range(100, 50, 10, page[:0]); len(page) != 0 || more {
				t.Fatalf("inverted range = %v, %v", page, more)
			}
			// Deletions disappear from pages.
			m.Delete(12)
			page, _ = m.Range(10, 16, 0, page[:0])
			if len(page) != 2 || page[0].Key != 10 || page[1].Key != 14 {
				t.Fatalf("post-delete range = %v", page)
			}
		})
	}
}

// TestRangeDeadHook: with a Dead hook installed, range pages and Items
// leave out the keys it reports, a page that reports more is full even
// where dead keys crowd a segment's collection, and the hook is consulted
// once per range op.
func TestRangeDeadHook(t *testing.T) {
	m := NewM1[int, int](Config{P: 2})
	defer m.Close()
	calls, on := 0, false
	m.SetKeyHooks(&KeyHooks[int, int]{
		Ghost: func(int) bool { return false },
		Wrote: func(int) {},
		Read:  func(int, int) {},
		Arm:   func(int, int64) bool { return false },
		Dead: func() func(int) bool {
			calls++ // under the engine mutex
			if !on {
				return nil
			}
			return func(k int) bool { return k%3 != 0 }
		},
	})
	for i := range 300 {
		m.Insert(i, i)
	}
	for i := 0; i < 300; i += 7 {
		m.Get(i) // spread the keys over several segments
	}
	spread := false
	for i := range 300 {
		spread = spread || holds(m.slab.segs[1], i)
	}
	if !spread {
		t.Fatal("the keys sit in one segment; the test needs several")
	}
	for _, dead := range []bool{false, true} {
		on = dead
		var want, got []int
		for i := range 300 {
			if !dead || i%3 == 0 {
				want = append(want, i)
			}
		}
		calls = 0
		pages := 0
		req := RangeReq[int, int]{Hi: 300, Limit: 7}
		lo := 0
		for ; ; pages++ {
			req.Out = req.Out[:0]
			r := m.Apply([]Op[int, int]{{Kind: OpRange, Key: lo, Range: &req}})[0]
			for _, kv := range req.Out {
				got = append(got, kv.Key)
			}
			if r.OK && len(req.Out) != 7 {
				t.Fatalf("dead=%v page %d: %d pairs with more", dead, pages, len(req.Out))
			}
			if !r.OK || len(req.Out) == 0 {
				break
			}
			lo, req.XLo = req.Out[len(req.Out)-1].Key, true
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("dead=%v: paged %v, want %v", dead, got, want)
		}
		if calls != pages+1 {
			t.Fatalf("dead=%v: Dead consulted %d times for %d range ops", dead, calls, pages+1)
		}
		got = got[:0]
		m.Items(func(k, _ int) bool { got = append(got, k); return true })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("dead=%v: Items %v, want %v", dead, got, want)
		}
	}
}

// TestRangeMixedBatch submits ranges inside a batch of point operations:
// they must not group with the point ops, and each range must observe a
// consistent snapshot (here checked after the batch completes).
func TestRangeMixedBatch(t *testing.T) {
	for name, m := range rangeEngines(t) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			req := RangeReq[int, int]{Hi: 1 << 30, Limit: 0}
			ops := []Op[int, int]{
				{Kind: OpInsert, Key: 5, Val: 50},
				{Kind: OpInsert, Key: 1, Val: 10},
				{Kind: OpRange, Key: 0, Range: &req},
				{Kind: OpInsert, Key: 9, Val: 90},
				{Kind: OpGet, Key: 5},
			}
			res := m.Apply(ops)
			if got, ok := res[4].Val, res[4].OK; !ok || got != 50 {
				t.Fatalf("Get(5) in batch = (%d, %v)", got, ok)
			}
			// The range ran against some consistent snapshot: sorted,
			// distinct, and every returned value matches what was inserted
			// for its key.
			wantVal := map[int]int{5: 50, 1: 10, 9: 90}
			for i, kv := range req.Out {
				if i > 0 && req.Out[i-1].Key >= kv.Key {
					t.Fatalf("range page not sorted: %v", req.Out)
				}
				if wv, ok := wantVal[kv.Key]; !ok || wv != kv.Val {
					t.Fatalf("range returned unknown pair %+v", kv)
				}
			}
		})
	}
}

// TestRangeConcurrentWrites hammers an engine with writers while another
// goroutine pages ranges; every returned page must be sorted, in bounds
// and value-consistent (values encode their key).
func TestRangeConcurrentWrites(t *testing.T) {
	for name, m := range rangeEngines(t) {
		t.Run(name, func(t *testing.T) {
			defer m.Close()
			const universe = 512
			iters := 3000
			if testing.Short() {
				iters = 300
			}
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w) * 101))
					for i := 0; i < iters; i++ {
						k := rng.Intn(universe)
						if rng.Intn(4) == 0 {
							m.Delete(k)
						} else {
							m.Insert(k, k*7)
						}
					}
				}(w)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(999))
				var page []KV[int, int]
				for i := 0; i < iters/10; i++ {
					lo := rng.Intn(universe)
					hi := lo + rng.Intn(universe-lo) + 1
					page, _ = m.Range(lo, hi, 64, page[:0])
					for j, kv := range page {
						if kv.Key < lo || kv.Key >= hi {
							t.Errorf("key %d outside [%d,%d)", kv.Key, lo, hi)
							return
						}
						if j > 0 && page[j-1].Key >= kv.Key {
							t.Errorf("page not sorted at %d: %v", j, page)
							return
						}
						if kv.Val != kv.Key*7 {
							t.Errorf("value %d for key %d, want %d", kv.Val, kv.Key, kv.Key*7)
							return
						}
					}
				}
			}()
			wg.Wait()
		})
	}
}
