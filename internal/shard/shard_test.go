package shard

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// engine names the subtest level the table tests of this package run
// under: the one engine the shard layer serves from. (The level dates
// from when there were two; it is kept so test ids stay comparable
// across that change.)
const engine = "m1"

// TestShardedAgainstReference drives a random operation sequence through a
// sharded map and a builtin map and checks every result.
func TestShardedAgainstReference(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 4, P: 2})
		defer m.Close()
		rng := rand.New(rand.NewSource(3))
		ref := map[int]int{}
		for step := 0; step < 5000; step++ {
			k := rng.Intn(300)
			want, wantOK := ref[k]
			switch rng.Intn(3) {
			case 0:
				old, existed := m.Insert(k, step)
				if existed != wantOK || (existed && old != want) {
					t.Fatalf("step %d: Insert(%d) = (%d, %v), want (%d, %v)",
						step, k, old, existed, want, wantOK)
				}
				ref[k] = step
			case 1:
				got, ok := m.Delete(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d: Delete(%d) = (%d, %v), want (%d, %v)",
						step, k, got, ok, want, wantOK)
				}
				delete(ref, k)
			default:
				got, ok := m.Get(k)
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("step %d: Get(%d) = (%d, %v), want (%d, %v)",
						step, k, got, ok, want, wantOK)
				}
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("Len = %d, want %d", m.Len(), len(ref))
		}
		// The engines deliver results ahead of their structural tail
		// work; CheckInvariants needs them idle.
		m.Quiesce()
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestShardedApply checks the sharded bulk-load path: results come back in
// input order with sequential per-key semantics.
func TestShardedApply(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, string](Config{Shards: 3, P: 2})
		defer m.Close()
		const n = 20000
		ops := make([]core.Op[int, string], n)
		for i := range ops {
			ops[i] = core.Op[int, string]{Kind: core.OpInsert, Key: i % 500, Val: "v"}
		}
		res := m.Apply(ops)
		if len(res) != n {
			t.Fatalf("got %d results", len(res))
		}
		// Keys repeat n/500 times; only the first insert of each key may
		// report "absent", and per-shard input order means it must.
		for i, r := range res {
			wantOK := i >= 500
			if r.OK != wantOK {
				t.Fatalf("result %d: OK = %v, want %v", i, r.OK, wantOK)
			}
		}
		if m.Len() != 500 {
			t.Fatalf("Len = %d, want 500", m.Len())
		}
	})
}

// TestShardedApplyScattered checks that applying a batch cut into
// arbitrary per-submitter slices through ApplyScattered is equivalent to
// applying the concatenation through ApplyInto: same results (delivered
// into the per-slice dsts) and same final map contents.
func TestShardedApplyScattered(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%s/S=%d", engine, shards), func(t *testing.T) {
			mkOps := func(rng *rand.Rand, n int) []core.Op[int, int] {
				ops := make([]core.Op[int, int], n)
				for i := range ops {
					k := rng.Intn(100)
					switch rng.Intn(3) {
					case 0:
						ops[i] = core.Op[int, int]{Kind: core.OpInsert, Key: k, Val: rng.Intn(1000)}
					case 1:
						ops[i] = core.Op[int, int]{Kind: core.OpDelete, Key: k}
					default:
						ops[i] = core.Op[int, int]{Kind: core.OpGet, Key: k}
					}
				}
				return ops
			}
			ref := New[int, int](Config{Shards: shards, P: 2})
			defer ref.Close()
			m := New[int, int](Config{Shards: shards, P: 2})
			defer m.Close()
			rng := rand.New(rand.NewSource(41))
			ops := mkOps(rng, 400)
			wantRes := ref.Apply(ops)

			// Cut the same ops into ragged per-submitter batches.
			var batches [][]core.Op[int, int]
			var dsts [][]core.Result[int]
			cutRng := rand.New(rand.NewSource(42))
			for off := 0; off < len(ops); {
				n := 1 + cutRng.Intn(9)
				if off+n > len(ops) {
					n = len(ops) - off
				}
				batches = append(batches, ops[off:off+n])
				dsts = append(dsts, make([]core.Result[int], n))
				off += n
			}
			m.ApplyScattered(batches, dsts, nil)

			i := 0
			for b, dst := range dsts {
				for j, got := range dst {
					if got.OK != wantRes[i].OK || got.Val != wantRes[i].Val {
						t.Fatalf("batch %d op %d: got (%d,%v), want (%d,%v)",
							b, j, got.Val, got.OK, wantRes[i].Val, wantRes[i].OK)
					}
					i++
				}
			}
			if i != len(ops) {
				t.Fatalf("scattered results cover %d ops, want %d", i, len(ops))
			}
			m.Quiesce()
			ref.Quiesce()
			var a, bItems []Entry[int, int]
			ref.Items(func(k, v int) bool { a = append(a, Entry[int, int]{Key: k, Val: v}); return true })
			m.Items(func(k, v int) bool { bItems = append(bItems, Entry[int, int]{Key: k, Val: v}); return true })
			if len(a) != len(bItems) {
				t.Fatalf("item counts differ: %d vs %d", len(a), len(bItems))
			}
			for i := range a {
				if a[i] != bItems[i] {
					t.Fatalf("item %d differs: %+v vs %+v", i, a[i], bItems[i])
				}
			}
		})
	}
}

// TestShardedItemsOrdered checks the cross-shard k-way merged iteration.
func TestShardedItemsOrdered(t *testing.T) {
	m := New[int, int](Config{Shards: 5, P: 2})
	defer m.Close()
	rng := rand.New(rand.NewSource(4))
	ref := map[int]int{}
	for i := 0; i < 3000; i++ {
		k := rng.Intn(10000)
		m.Insert(k, i)
		ref[k] = i
	}
	var got []int
	m.Items(func(k, v int) bool {
		if ref[k] != v {
			t.Fatalf("Items: key %d has value %d, want %d", k, v, ref[k])
		}
		got = append(got, k)
		return true
	})
	if len(got) != len(ref) {
		t.Fatalf("Items visited %d keys, want %d", len(got), len(ref))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("Items not in ascending key order")
	}
}

// TestShardedRange checks the half-open range scan and early termination.
func TestShardedRange(t *testing.T) {
	m := New[int, int](Config{Shards: 4, P: 2})
	defer m.Close()
	for i := 0; i < 1000; i++ {
		m.Insert(i, i*10)
	}
	var got []int
	m.Range(100, 200, func(k, v int) bool {
		if v != k*10 {
			t.Fatalf("Range: key %d has value %d", k, v)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 100 || got[0] != 100 || got[99] != 199 {
		t.Fatalf("Range [100,200) visited %d keys (first %d, last %d)",
			len(got), got[0], got[len(got)-1])
	}
	// Early termination.
	count := 0
	m.Range(0, 1000, func(k, v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early-terminated Range visited %d keys", count)
	}
}

// TestShardedConcurrent hammers one sharded map from many goroutines with
// disjoint key ranges and checks exact per-client results.
func TestShardedConcurrent(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 4, P: 2})
		defer m.Close()
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(c)))
				base := c * 10000
				ref := map[int]int{}
				for i := 0; i < 1500; i++ {
					k := base + rng.Intn(200)
					switch rng.Intn(3) {
					case 0:
						m.Insert(k, i)
						ref[k] = i
					case 1:
						got, ok := m.Delete(k)
						want, wantOK := ref[k]
						if ok != wantOK || (ok && got != want) {
							t.Errorf("client %d: Delete(%d) mismatch", c, k)
							return
						}
						delete(ref, k)
					default:
						got, ok := m.Get(k)
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
	})
}

// TestFrontCacheNoStaleRead is the front cache's write contract at the
// library surface: one writer bumps a hot key while readers keep it hot
// in the front, and every reader's view must be monotone — having seen
// value n (from the engine or the front), it may never then see an older
// one. That holds only if a write drops the key's front slot at the
// key's engine serialization point; dropping it any later lets a reader
// whose engine read already resolved behind the write return the new
// value while the old one is still cached for its next Get. Needs real
// parallelism to bite, so it pins GOMAXPROCS to 2.
func TestFrontCacheNoStaleRead(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const (
		readers = 3
		writes  = 20000
	)
	m := New[string, int](Config{Shards: 2, FrontCache: 64})
	defer m.Close()
	m.Insert("hot", 0)

	var done atomic.Bool
	var wg sync.WaitGroup
	var stale atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for n := 0; !done.Load(); n++ {
				// Three spinning readers on two Ps can hold a woken
				// writer off-CPU for a whole time slice; a periodic
				// yield keeps the run at milliseconds while leaving
				// 63 of 64 reads truly parallel with the writer.
				if n%64 == 63 {
					runtime.Gosched()
				}
				v, ok := m.Get("hot")
				if !ok || v < last {
					stale.Add(1)
					t.Errorf("Get(hot) = %d, %v after reading %d", v, ok, last)
					return
				}
				last = v
			}
		}()
	}
	for i := 1; i <= writes && stale.Load() == 0; i++ {
		m.Insert("hot", i)
	}
	done.Store(true)
	wg.Wait()
	if fs := m.FrontStats(); fs.Hits == 0 || fs.Invalidates == 0 {
		t.Errorf("front idle during the run: %+v (want hits and invalidates)", fs)
	}
}

// TestFrontFillAtRead checks where the front is filled: inside the
// engine, by a GET that finds its key resident, with the value the
// key's batch leaves; never by a write-only batch or by a GET of an
// absent key, which reserves no slot.
func TestFrontFillAtRead(t *testing.T) {
	m := New[string, string](Config{Shards: 2, FrontCache: 64})
	defer m.Close()
	get := func(k string) core.Op[string, string] {
		return core.Op[string, string]{Kind: core.OpGet, Key: k}
	}
	set := func(k, v string) core.Op[string, string] {
		return core.Op[string, string]{Kind: core.OpInsert, Key: k, Val: v}
	}

	m.ApplyInto([]core.Op[string, string]{set("a", "1"), set("b", "2")}, nil)
	if fs := m.FrontStats(); fs.Reserves != 0 || fs.Installs != 0 {
		t.Fatalf("a write-only batch filled the front: %+v", fs)
	}
	if v, ok := m.FrontGet("a"); ok {
		t.Fatalf("FrontGet(a) = %q after a write-only batch", v)
	}

	if r := m.ApplyInto([]core.Op[string, string]{get("a")}, nil); !r[0].OK || r[0].Val != "1" {
		t.Fatalf("GET a = %+v", r[0])
	}
	if v, ok := m.FrontGet("a"); !ok || v != "1" {
		t.Fatalf("FrontGet(a) = %q, %v after an engine GET of a; want a hit on 1", v, ok)
	}

	m.ApplyInto([]core.Op[string, string]{get("b"), set("b", "3")}, nil)
	if v, ok := m.FrontGet("b"); ok && v != "3" {
		t.Fatalf("FrontGet(b) = %q after GET b, SET b 3 in one batch; want 3 or a miss", v)
	}

	before := m.FrontStats().Reserves
	if v, ok := m.Get("absent"); ok {
		t.Fatalf("Get(absent) = %q", v)
	}
	if r := m.ApplyInto([]core.Op[string, string]{get("absent too")}, nil); r[0].OK {
		t.Fatalf("GET of an absent key = %+v", r[0])
	}
	if n := m.FrontStats().Reserves; n != before {
		t.Fatalf("GETs of absent keys placed %d reservations, want 0", n-before)
	}
}

// TestFrontFillAfterWork checks when a fill becomes readable: only once
// the batch's overlap work has returned, never while it runs, even for a
// GET that the engine resolved in a later engine batch than the write
// whose value it read. A durable server's work is its WAL sync, and the
// front answers reads that take no batch.
func TestFrontFillAfterWork(t *testing.T) {
	m := New[string, string](Config{Shards: 1, P: 2, FrontCache: 64})
	defer m.Close()
	// Many ops after the SET, so the engine's batch size splits the
	// sub-batch and the GET reads the SET's value from the tree.
	ops := []core.Op[string, string]{{Kind: core.OpInsert, Key: "k", Val: "v"}}
	for i := 0; i < 16; i++ {
		ops = append(ops, core.Op[string, string]{Kind: core.OpInsert, Key: fmt.Sprintf("f%d", i), Val: "x"})
	}
	ops = append(ops,
		core.Op[string, string]{Kind: core.OpGet, Key: "k"},
		core.Op[string, string]{Kind: core.OpInsert, Key: "z", Val: "x"})
	dst := make([]core.Result[string], len(ops))
	var during []string
	m.ApplyScattered([][]core.Op[string, string]{ops}, [][]core.Result[string]{dst}, func() {
		for deadline := time.Now().Add(5 * time.Second); m.Len() < 18; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				during = append(during, "the batch was not applied while its work ran")
				return
			}
		}
		if v, ok := m.FrontGet("k"); ok {
			during = append(during, fmt.Sprintf("FrontGet(k) = %q while the batch's work ran; want a miss", v))
		}
	})
	for _, e := range during {
		t.Error(e)
	}
	if r := dst[len(ops)-2]; !r.OK || r.Val != "v" {
		t.Fatalf("GET k = %+v", r)
	}
	if v, ok := m.FrontGet("k"); !ok || v != "v" {
		t.Fatalf("FrontGet(k) = (%q, %v) after the batch; want a hit on v", v, ok)
	}
}

// TestShardedDefaultShards checks the zero-value shard count falls back to
// GOMAXPROCS.
func TestShardedDefaultShards(t *testing.T) {
	m := New[int, int](Config{})
	defer m.Close()
	if got, want := m.Shards(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("Shards() = %d, want GOMAXPROCS = %d", got, want)
	}
}

// TestShardedRangePage checks cursor pagination: pages are exact prefixes
// of the global order, the cursor resumes exclusively, and `more` turns
// false at the end — all without quiescing the map.
func TestShardedRangePage(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 4, P: 2})
		defer m.Close()
		const n = 500
		for i := 0; i < n; i++ {
			m.Insert(i, i*3)
		}
		var got []int
		var buf []Entry[int, int]
		cur, xlo, pages := 0, false, 0
		for {
			page, more := m.RangePage(cur, xlo, n, 64, buf[:0])
			buf = page
			for _, kv := range page {
				if kv.Val != kv.Key*3 {
					t.Fatalf("key %d has value %d", kv.Key, kv.Val)
				}
				got = append(got, kv.Key)
			}
			pages++
			if !more || len(page) == 0 {
				break
			}
			if len(page) > 64 {
				t.Fatalf("page of %d pairs exceeds limit", len(page))
			}
			cur, xlo = page[len(page)-1].Key, true
		}
		if len(got) != n {
			t.Fatalf("paged through %d keys in %d pages, want %d", len(got), pages, n)
		}
		for i, k := range got {
			if k != i {
				t.Fatalf("got[%d] = %d", i, k)
			}
		}
		if pages < n/64 {
			t.Fatalf("only %d pages for %d keys at limit 64", pages, n)
		}
		// A page from an empty tail: no pairs, no more.
		page, more := m.RangePage(n, true, n+100, 10, buf[:0])
		if len(page) != 0 || more {
			t.Fatalf("tail page = %v (more=%v)", page, more)
		}
	})
}

// TestShardedRangeConcurrent pages ranges while writers churn the map and
// checks every page is sorted, in-bounds and value-consistent — the
// no-stop-the-world property under -race.
func TestShardedRangeConcurrent(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 4, P: 2})
		defer m.Close()
		const universe = 1 << 10
		iters := 2000
		if testing.Short() {
			iters = 200
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*31 + 7))
				for i := 0; i < iters; i++ {
					k := rng.Intn(universe)
					if rng.Intn(4) == 0 {
						m.Delete(k)
					} else {
						m.Insert(k, k*11)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(5))
			var buf []Entry[int, int]
			for i := 0; i < iters/20; i++ {
				lo := rng.Intn(universe)
				hi := lo + rng.Intn(universe-lo) + 1
				page, _ := m.RangePage(lo, false, hi, 32, buf[:0])
				buf = page
				for j, kv := range page {
					if kv.Key < lo || kv.Key >= hi || kv.Val != kv.Key*11 {
						t.Errorf("bad pair %+v in [%d,%d)", kv, lo, hi)
						return
					}
					if j > 0 && page[j-1].Key >= kv.Key {
						t.Errorf("unsorted page: %v", page)
						return
					}
				}
			}
		}()
		wg.Wait()
	})
}

// TestShardedApplyRejectsRange documents the routing contract: a range op
// cannot ride the point-op Apply path on a multi-shard map.
func TestShardedApplyRejectsRange(t *testing.T) {
	m := New[int, int](Config{Shards: 4, P: 2})
	defer m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Apply with OpRange did not panic")
		}
	}()
	req := core.RangeReq[int, int]{Hi: 10, Limit: 5}
	m.Apply([]core.Op[int, int]{{Kind: core.OpRange, Key: 0, Range: &req}})
}
