package pws

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Concurrent linearizability-style property test: many goroutines hammer
// one map with a randomized Get/Insert/Delete mix over a shared key space,
// and every single result is cross-checked against a mutex-guarded
// reference model. Batch workers submit the same mix as multi-key Apply/
// ApplyInto calls beside them, so a map's two entry paths race on one
// engine. A scanner goroutine additionally pages Range reads and checks
// every returned pair against the model's per-key history.
//
// The reference is striped per key: an operation holds its key's stripe
// lock across (map op + model op), so same-key operations are serialized
// and exactly checkable, while operations on different keys run fully
// concurrently through the engines' batching machinery. Under -race this
// doubles as a data-race hunt through the whole submit/sort/segment path,
// range serving included.
//
// Range pages cannot be checked exactly (a page spans many stripes and
// holds none of them), so they are checked by snapshot bracketing against
// per-key value histories: every returned pair must have been live at
// some point within the range op's invocation window. Each history
// entry's lifetime is recorded conservatively — its start is stamped
// before the map operation that created it, its end after the operation
// that superseded it — so a value truly live at the range's linearization
// point always has a recorded interval intersecting the window, and a
// check failure is a real consistency violation, never timestamp skew.

// Expiry runs extend the model with per-key deadlines: an armed TTL is
// a delete that takes effect at the key's absolute deadline, enforced
// lazily by the map. Every op therefore classifies the key's pre-op
// state by wall-clock bracketing — stamped before and after the map
// call — as definitely-present (the call finished before the deadline),
// definitely-absent (it started after), or ambiguous (the call window
// straddles the deadline, where either outcome is legal). Only the
// definite classes assert exact results, so a failure is a real
// consistency violation, never clock skew.

type histEntry struct {
	val   int
	ok    bool
	start int64 // stamped before the creating map op
	end   int64 // stamped after the superseding map op; 0 = still current
	// deadline is the armed TTL (absolute unix-nanos; 0 = none): the
	// entry reads as live before it and as absent after it.
	deadline int64
}

// refModel is the per-key-striped reference: stripe s guards hist[s].
type refModel struct {
	clock   atomic.Int64
	stripes []sync.Mutex
	hist    [][]histEntry
}

func newRefModel(keys int) *refModel {
	return &refModel{
		stripes: make([]sync.Mutex, keys),
		hist:    make([][]histEntry, keys),
	}
}

// current returns the live entry for key k (zero entry when never
// written). Caller holds the stripe.
func (m *refModel) current(k int) histEntry {
	if h := m.hist[k]; len(h) > 0 {
		return h[len(h)-1]
	}
	return histEntry{}
}

// record closes the current entry (end = post-op stamp) and appends the
// new state with its pre-op stamp. Caller holds the stripe.
func (m *refModel) record(k int, e histEntry) {
	if h := m.hist[k]; len(h) > 0 {
		h[len(h)-1].end = e.end
	}
	m.hist[k] = append(m.hist[k], histEntry{val: e.val, ok: e.ok, start: e.start, deadline: e.deadline})
}

// arm stamps an armed TTL deadline onto the current entry. Caller holds
// the stripe.
func (m *refModel) arm(k int, deadline int64) {
	if h := m.hist[k]; len(h) > 0 {
		h[len(h)-1].deadline = deadline
	}
}

// classify brackets the key's pre-op state against the op's wall-clock
// window [t0, t1]: +1 definitely present, -1 definitely absent, 0
// ambiguous (the window straddles the armed deadline). The map samples
// its expiry clock strictly inside the call, so a call that returned
// before the deadline saw the key live and one that started after saw
// it dead. Caller holds the stripe.
func (e histEntry) classify(t0, t1 int64) int {
	switch {
	case !e.ok:
		return -1
	case e.deadline == 0 || t1 <= e.deadline:
		return +1
	case t0 >= e.deadline:
		return -1
	default:
		return 0
	}
}

// liveWithin reports whether (k, v) was recorded as live at some point
// intersecting [t0, t1]. Caller holds the stripe.
func (m *refModel) liveWithin(k, v int, t0, t1 int64) bool {
	for _, e := range m.hist[k] {
		if e.ok && e.val == v && e.start <= t1 && (e.end == 0 || e.end >= t0) {
			return true
		}
	}
	return false
}

// pointOp turns a draw from [0, 5) into the worker mix: 2/5 insert, 1/5
// delete, 2/5 get.
func pointOp(draw, k, v int) Op[int, int] {
	switch draw {
	case 0, 1:
		return Op[int, int]{Kind: OpInsert, Key: k, Val: v}
	case 2:
		return Op[int, int]{Kind: OpDelete, Key: k}
	}
	return Op[int, int]{Kind: OpGet, Key: k}
}

// doPoint runs op through the map's point methods.
func doPoint(m ConcurrentMap[int, int], op Op[int, int]) (r Result[int]) {
	switch op.Kind {
	case OpInsert:
		r.Val, r.OK = m.Insert(op.Key, op.Val)
	case OpDelete:
		r.Val, r.OK = m.Delete(op.Key)
	default:
		r.Val, r.OK = m.Get(op.Key)
	}
	return r
}

// settle checks the result r of a get, insert or delete against want, the
// key's state before the op, classified over the call's wall-clock window
// [t0, t1], and records a write as the key's new entry stamped [pre, post]
// (an insert clears any armed TTL: the new entry has none). It returns a
// description of the violation, or "". Caller holds the stripe.
func (m *refModel) settle(op Op[int, int], want histEntry, r Result[int], t0, t1, pre, post int64) string {
	var msg string
	switch want.classify(t0, t1) {
	case +1:
		if !r.OK || r.Val != want.val {
			msg = fmt.Sprintf("= (%d, %v), model (%d, %v)", r.Val, r.OK, want.val, want.ok)
		}
	case -1:
		if r.OK {
			msg = fmt.Sprintf("= (%d, true), model absent (expired or deleted)", r.Val)
		}
	default:
		if r.OK && r.Val != want.val {
			msg = fmt.Sprintf("= stale %d, model (%d, %v)", r.Val, want.val, want.ok)
		}
	}
	switch op.Kind {
	case OpInsert:
		m.record(op.Key, histEntry{val: op.Val, ok: true, start: pre, end: post})
	case OpDelete:
		m.record(op.Key, histEntry{ok: false, start: pre, end: post})
	}
	return msg
}

// batcher is the batch surface M1, M2 and Sharded share.
type batcher interface {
	Apply(ops []Op[int, int]) []Result[int]
	ApplyInto(ops []Op[int, int], dst []Result[int]) []Result[int]
}

// rangePager is one cursor page read: [lo, hi) exclusive-lo when xlo,
// at most limit pairs into dst, reporting (page, more).
type rangePager func(lo int, xlo bool, hi, limit int, dst []KV[int, int]) ([]KV[int, int], bool)

// pagerOf builds the range entry point for each map flavor: RangePage on
// the sharded front-end, the engine Range method on M1 (whose cursor
// form is exercised at the core layer; here lo is advanced inclusively
// by nudging past the last key), none on M2, which serves no ranges.
func pagerOf(m ConcurrentMap[int, int]) rangePager {
	switch v := any(m).(type) {
	case *Sharded[int, int]:
		return v.RangePage
	case *M1[int, int]:
		return func(lo int, xlo bool, hi, limit int, dst []KV[int, int]) ([]KV[int, int], bool) {
			if xlo {
				lo++
			}
			return v.Range(lo, hi, limit, dst)
		}
	default:
		return nil
	}
}

// expirer is the expiry surface the Sharded map exposes; the expiry
// variants of the suite require it.
type expirer interface {
	Expire(k int, deadline int64) bool
	Now() int64
}

func runLinearizabilityTest(t *testing.T, m ConcurrentMap[int, int], expiry bool) {
	t.Helper()
	defer m.Close()

	const (
		numKeys      = 128
		workers      = 8
		batchWorkers = 2
	)
	opsPer := 4000
	if testing.Short() {
		opsPer = 500
	}

	ex, _ := any(m).(expirer)
	if expiry && ex == nil {
		t.Fatal("expiry run on a map without Expire")
	}
	// clk samples the same clock the map's expiry checks use; without an
	// expiry surface the stamps are never consulted (deadline stays 0).
	clk := func() int64 { return 0 }
	if ex != nil {
		clk = ex.Now
	}

	model := newRefModel(numKeys)
	var maxDeadline atomic.Int64 // latest future deadline armed, waited out before final checks

	var writersWg, scanWg sync.WaitGroup
	var failed sync.Once
	fail := func(format string, args ...any) {
		failed.Do(func() { t.Errorf(format, args...) })
	}
	var done atomic.Bool
	for w := 0; w < workers; w++ {
		writersWg.Add(1)
		go func(w int) {
			defer writersWg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			mix := 5
			if expiry {
				mix = 6 // case 5 = expire
			}
			for i := 0; i < opsPer; i++ {
				k := rng.Intn(numKeys)
				v := w*1_000_000 + i // unique per (worker, step)
				model.stripes[k].Lock()
				want := model.current(k)
				switch d := rng.Intn(mix); d {
				default: // insert, delete or get
					op := pointOp(d, k, v)
					t0 := clk()
					pre := model.clock.Add(1)
					r := doPoint(m, op)
					post := model.clock.Add(1)
					t1 := clk()
					if msg := model.settle(op, want, r, t0, t1, pre, post); msg != "" {
						fail("worker %d: %v(%d) %s", w, op.Kind, k, msg)
					}
				case 5: // expire (only in the expiry mix)
					// Half the arms use an already-past deadline — a lazy
					// delete whose reads must miss immediately — and half a
					// short future one, whose passing the bracketed reads
					// above then observe.
					now := ex.Now()
					dl := now - int64(time.Millisecond)
					past := rng.Intn(2) == 0
					if !past {
						dl = now + int64(1+rng.Intn(4))*int64(time.Millisecond)
					}
					t0 := now
					pre := model.clock.Add(1)
					armed := ex.Expire(k, dl)
					post := model.clock.Add(1)
					t1 := ex.Now()
					switch want.classify(t0, t1) {
					case +1:
						if !armed {
							fail("worker %d: Expire(%d) = false, model has the key live", w, k)
						}
					case -1:
						if armed {
							fail("worker %d: Expire(%d) armed an absent key", w, k)
						}
					}
					switch {
					case armed && past:
						// Armed with a dead deadline: a delete from every
						// subsequent observer's point of view.
						model.record(k, histEntry{ok: false, start: pre, end: post})
					case armed:
						model.arm(k, dl)
						for {
							cur := maxDeadline.Load()
							if dl <= cur || maxDeadline.CompareAndSwap(cur, dl) {
								break
							}
						}
					case want.classify(t0, t1) != +1:
						// Refused: the key was absent or already expired;
						// either way it reads absent from here on.
						model.record(k, histEntry{ok: false, start: pre, end: post})
					}
				}
				model.stripes[k].Unlock()
			}
		}(w)
	}

	// Batch workers: each step submits 2–8 ops on distinct keys as one
	// Apply or ApplyInto — M1's mutex path and the shard workers, racing
	// the point workers' Do/activation path on the same engines. A batch
	// holds all its keys' stripes (taken in key order), so every op is
	// checked exactly like a point op, against its key's history over the
	// batch's call window.
	if b, ok := any(m).(batcher); ok {
		for w := workers; w < workers+batchWorkers; w++ {
			writersWg.Add(1)
			go func(w int) {
				defer writersWg.Done()
				rng := rand.New(rand.NewSource(int64(w) * 7919))
				var (
					keys  []int
					ops   []Op[int, int]
					wants []histEntry
					res   []Result[int]
				)
				for i := 0; i < opsPer/4; i++ {
					keys = keys[:0]
					for n := 2 + rng.Intn(7); len(keys) < n; {
						if k := rng.Intn(numKeys); !slices.Contains(keys, k) {
							keys = append(keys, k)
						}
					}
					slices.Sort(keys)
					ops, wants = ops[:0], wants[:0]
					for j, k := range keys {
						model.stripes[k].Lock()
						wants = append(wants, model.current(k))
						ops = append(ops, pointOp(rng.Intn(5), k, w*1_000_000+i*8+j))
					}
					t0 := clk()
					pre := model.clock.Add(1)
					if i%2 == 0 {
						res = b.Apply(ops)
					} else {
						res = b.ApplyInto(ops, res)
					}
					post := model.clock.Add(1)
					t1 := clk()
					for j, op := range ops {
						if msg := model.settle(op, wants[j], res[j], t0, t1, pre, post); msg != "" {
							fail("batch worker %d: %v(%d) in a batch of %d %s", w, op.Kind, op.Key, len(ops), msg)
						}
						model.stripes[op.Key].Unlock()
					}
				}
			}(w)
		}
	}

	// Scanner: pages Range reads concurrently with the writers and checks
	// every page by snapshot bracketing, plus the structural page
	// contract (sorted, in bounds, within limit), plus cursor resumes.
	if pager := pagerOf(m); pager != nil {
		scanWg.Add(1)
		go func() {
			defer scanWg.Done()
			rng := rand.New(rand.NewSource(4242))
			var page []KV[int, int]
			for !done.Load() {
				lo := rng.Intn(numKeys)
				hi := lo + 1 + rng.Intn(numKeys-lo)
				limit := 1 + rng.Intn(24)
				xlo := false
				for {
					t0 := model.clock.Add(1)
					var more bool
					page, more = pager(lo, xlo, hi, limit, page[:0])
					t1 := model.clock.Add(1)
					if len(page) > limit {
						fail("range [%d,%d) limit %d returned %d pairs", lo, hi, limit, len(page))
						return
					}
					prev := -1
					for _, kv := range page {
						if kv.Key < lo || kv.Key >= hi || (xlo && kv.Key == lo) {
							fail("range [%d,%d) xlo=%v returned out-of-bounds key %d", lo, hi, xlo, kv.Key)
							return
						}
						if kv.Key <= prev {
							fail("range [%d,%d) page out of order: %d after %d", lo, hi, kv.Key, prev)
							return
						}
						prev = kv.Key
						model.stripes[kv.Key].Lock()
						live := model.liveWithin(kv.Key, kv.Val, t0, t1)
						model.stripes[kv.Key].Unlock()
						if !live {
							fail("range [%d,%d): pair (%d,%d) was never live within the op window [%d,%d]",
								lo, hi, kv.Key, kv.Val, t0, t1)
							return
						}
					}
					// Follow the cursor for a few pages, then start a new
					// random range.
					if !more || len(page) == 0 || rng.Intn(3) == 0 {
						break
					}
					lo, xlo = page[len(page)-1].Key, true
				}
			}
		}()
	}

	// The scanner free-runs; stop it once the writers are done.
	writersWg.Wait()
	done.Store(true)
	scanWg.Wait()
	if t.Failed() {
		return
	}

	// Wait out the last armed deadline, so every surviving TTL is past
	// and the final state is deterministic: an entry with a deadline is
	// dead, everything else is exactly the model.
	if dl := maxDeadline.Load(); dl != 0 {
		for ex.Now() <= dl {
			time.Sleep(time.Millisecond)
		}
	}
	finalLive := func(k int) (int, bool) {
		cur := model.current(k)
		if cur.ok && cur.deadline == 0 {
			return cur.val, true
		}
		return 0, false
	}

	// Final contents must match the model exactly.
	wantLen := 0
	for k := range model.hist {
		if _, live := finalLive(k); live {
			wantLen++
		}
	}
	type snapshotter interface {
		Quiesce()
		Items(visit func(k, v int) bool)
	}
	if m.Len() != wantLen {
		t.Fatalf("final Len = %d, model has %d keys", m.Len(), wantLen)
	}
	if s, ok := any(m).(snapshotter); ok {
		s.Quiesce()
		var keys []int
		s.Items(func(k, v int) bool {
			want, live := 0, false
			if k >= 0 && k < numKeys {
				want, live = finalLive(k)
			}
			if !live || want != v {
				t.Errorf("final Items: (%d, %d) not in model", k, v)
				return false
			}
			keys = append(keys, k)
			return true
		})
		if len(keys) != wantLen {
			t.Fatalf("final Items visited %d keys, model has %d", len(keys), wantLen)
		}
		if !sort.IntsAreSorted(keys) {
			t.Fatal("final Items not in ascending key order")
		}
		// And one final full-range page must now equal the model exactly:
		// the map is quiescent, so the page is not just bracketed but
		// precise.
		if pager := pagerOf(m); pager != nil {
			page, more := pager(0, false, numKeys, numKeys+1, nil)
			if more {
				t.Error("final full-range page reports more=true past the whole key space")
			}
			if len(page) != wantLen {
				t.Fatalf("final full-range page has %d pairs, model has %d", len(page), wantLen)
			}
			for _, kv := range page {
				if want, live := finalLive(kv.Key); !live || want != kv.Val {
					t.Fatalf("final page pair (%d,%d) not in model", kv.Key, kv.Val)
				}
			}
		}
	}
}

func TestLinearizabilityM1(t *testing.T) {
	runLinearizabilityTest(t, NewM1[int, int](Options{P: 4}), false)
}

func TestLinearizabilityM2(t *testing.T) {
	runLinearizabilityTest(t, NewM2[int, int](Options{P: 4}), false)
}

func TestLinearizabilityShardedM1(t *testing.T) {
	runLinearizabilityTest(t, NewSharded[int, int](ShardedOptions{
		P: 2, Shards: 4,
	}), false)
}

// The front-cache variants run the same history checker with a small
// hot-key read cache ahead of the batch pipeline, so cached Gets, the
// commit-boundary invalidation sweep, and the install pointer guard are
// all exercised against the sequential model (a stale cached read shows
// up as a history violation).
func TestLinearizabilityFrontShardedM1(t *testing.T) {
	runLinearizabilityTest(t, NewSharded[int, int](ShardedOptions{
		P: 2, Shards: 4, FrontCache: 256,
	}), false)
}

// The expiry variants add Expire ops to the mix — half already-past
// deadlines (lazy deletes), half short future ones — and model an armed
// TTL as a delete taking effect at the key's absolute deadline, with
// every result classified by wall-clock bracketing. The front cache is
// on, so the commit-boundary invalidation of expired keys is checked by
// the same history (a stale cached read of an expired key fails the
// definitely-absent assertion).
func TestLinearizabilityExpiryShardedM1(t *testing.T) {
	runLinearizabilityTest(t, NewSharded[int, int](ShardedOptions{
		P: 2, Shards: 4, FrontCache: 256,
	}), true)
}
