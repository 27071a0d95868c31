package shard

// Tests for per-key TTL and the bounded-memory byte budget at the shard
// layer: engine-ordered expiry transitions, the lazy commit-boundary
// sweep, Len/Items convergence, expired keys left out of range pages,
// and — the
// regression this file exists for — front-cache invalidation on
// engine-initiated removal (expiry and eviction), which bypasses the
// write path the front's normal invalidation sweep watches.

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// fakeClock is an injectable TTL clock.
type fakeClock struct{ now atomic.Int64 }

func newFakeClock(start int64) *fakeClock {
	c := &fakeClock{}
	c.now.Store(start)
	return c
}

func (c *fakeClock) fn() func() int64 { return c.now.Load }

func newTTLMap(clk *fakeClock, front int, maxBytes int64) *Map[string, string] {
	return New[string, string](Config{
		Shards:     1,
		P:          2,
		FrontCache: front,
		MaxBytes:   maxBytes,
		Clock:      clk.fn(),
	})
}

// TestExpireBasic covers the EXPIRE contract: arming on a present key,
// absence after the deadline, re-insert clearing the TTL, and EXPIRE on
// a missing key returning false.
func TestExpireBasic(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := newTTLMap(clk, 0, 0)
		defer m.Close()

		if m.Expire("missing", 2000) {
			t.Fatal("EXPIRE on a missing key reported present")
		}
		if st := m.Mem(); st.TTLs != 0 {
			t.Fatalf("EXPIRE on a missing key armed a TTL: %+v", st)
		}

		m.Insert("k", "v")
		if !m.Expire("k", 2000) {
			t.Fatal("EXPIRE on a present key reported missing")
		}
		if st := m.Mem(); st.TTLs != 1 {
			t.Fatalf("armed TTLs = %d, want 1", st.TTLs)
		}
		// Before the deadline the key reads normally.
		if v, ok := m.Get("k"); !ok || v != "v" {
			t.Fatalf("Get before deadline = (%q, %v)", v, ok)
		}
		// From the deadline on it is absent, sweep or no sweep.
		clk.now.Store(2000)
		if _, ok := m.Get("k"); ok {
			t.Fatal("expired key still readable")
		}
		if n := m.Len(); n != 0 {
			t.Fatalf("Len after expiry = %d, want 0", n)
		}
		// The observing Get retired the incarnation and its entry.
		if st := m.Mem(); st.TTLs != 0 || st.Expired != 1 {
			t.Fatalf("after expiry: %+v, want TTLs 0 Expired 1", st)
		}

		// A fresh SET carries no TTL: the insert clears any armed
		// deadline, so the new incarnation survives the old one's
		// deadline passing.
		m.Insert("k2", "a")
		m.Expire("k2", 3000)
		m.Insert("k2", "b")
		if st := m.Mem(); st.TTLs != 0 {
			t.Fatalf("re-insert left a TTL armed: %+v", st)
		}
		clk.now.Store(5000)
		if v, ok := m.Get("k2"); !ok || v != "b" {
			t.Fatalf("re-inserted key expired with its old TTL: (%q, %v)", v, ok)
		}
	})
}

// TestExpirePastDeadline is the orphaned-entry regression: an EXPIRE
// whose deadline is already past deletes the key immediately — and must
// also drop any deadline a *prior* EXPIRE armed. The bug left that
// entry behind (the key's incarnation vanishes in the same replay, so
// no later observation could ever retire it), permanently deflating
// Len once the stale deadline passed.
func TestExpirePastDeadline(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := newTTLMap(clk, 0, 0)
		defer m.Close()

		m.Insert("a", "1")
		m.Expire("a", 5000) // future deadline armed
		if !m.Expire("a", 500) {
			t.Fatal("EXPIRE with a past deadline on a present key reported missing")
		}
		if _, ok := m.Get("a"); ok {
			t.Fatal("key survived an already-past deadline")
		}
		if st := m.Mem(); st.TTLs != 0 {
			t.Fatalf("past-deadline EXPIRE orphaned an armed entry: %+v", st)
		}
		m.Insert("b", "2")
		clk.now.Store(10_000) // the orphan's deadline passes
		if n := m.Len(); n != 1 {
			t.Fatalf("Len = %d, want 1 (orphaned entry deflating the count)", n)
		}
	})
}

// TestLenConvergence is the LEN-vs-sweep contract: Len must exclude
// expired-but-unswept keys the moment their deadlines pass, and the
// commit-boundary sweep must converge the physical state (armed
// entries, resident incarnations) to match without changing Len.
func TestLenConvergence(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := newTTLMap(clk, 0, 0)
		defer m.Close()

		const n, dying = 64, 20
		for i := 0; i < n; i++ {
			m.Insert(fmt.Sprintf("k%03d", i), "v")
		}
		for i := 0; i < dying; i++ {
			m.Expire(fmt.Sprintf("k%03d", i), 2000)
		}
		if got := m.Len(); got != n {
			t.Fatalf("Len before deadline = %d, want %d", got, n)
		}

		// Deadline passes: Len converges immediately, before any
		// sweep has removed a single incarnation.
		clk.now.Store(2000)
		if got := m.Len(); got != n-dying {
			t.Fatalf("Len at deadline = %d, want %d", got, n-dying)
		}

		// Any batch boundary triggers the sweep; afterwards the
		// dead incarnations are physically gone.
		m.Apply([]core.Op[string, string]{{Kind: core.OpGet, Key: "k999"}})
		if st := m.Mem(); st.TTLs != 0 || st.Expired != dying {
			t.Fatalf("after sweep: %+v, want TTLs 0 Expired %d", st, dying)
		}
		if got := m.Len(); got != n-dying {
			t.Fatalf("Len after sweep = %d, want %d", got, n-dying)
		}
		m.Quiesce()
		count := 0
		m.Items(func(k, v string) bool { count++; return true })
		if count != n-dying {
			t.Fatalf("Items visited %d keys, want %d", count, n-dying)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRangeGhostFilter: a range page served before any sweep must not
// contain expired keys — each engine leaves them out where its range
// linearizes — and paging past them still returns full pages.
func TestRangeGhostFilter(t *testing.T) {
	t.Run("paged", func(t *testing.T) {
		clk := newFakeClock(1000)
		m := New[string, string](Config{
			Shards: 4, P: 2, Clock: clk.fn(),
		})
		defer m.Close()

		var want []string
		for i := range 200 {
			k := fmt.Sprintf("k%03d", i)
			m.Insert(k, "v")
			if i%4 != 0 {
				m.Expire(k, 2000)
			} else {
				want = append(want, k)
			}
		}
		clk.now.Store(2000)

		var got []string
		short := 0
		cur, xlo := "", false
		for pages := 0; ; pages++ {
			if pages > 200 {
				t.Fatal("paging did not terminate")
			}
			page, more := m.RangePage(cur, xlo, "z", 7, nil)
			for _, ent := range page {
				got = append(got, ent.Key)
			}
			if more && len(page) != 7 {
				short++
			}
			if !more || len(page) == 0 {
				break
			}
			cur, xlo = page[len(page)-1].Key, true
		}
		if short > 0 {
			t.Fatalf("%d pages came back short", short)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("paged range = %v, want %v", got, want)
		}
	})
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := New[string, string](Config{
			Shards: 4, P: 2, Clock: clk.fn(),
		})
		defer m.Close()

		for i := 0; i < 10; i++ {
			m.Insert(fmt.Sprintf("k%d", i), "v")
		}
		for _, k := range []string{"k3", "k5", "k7"} {
			m.Expire(k, 2000)
		}
		clk.now.Store(2000)

		page, more := m.RangePage("", false, "z", 100, nil)
		if more {
			t.Fatal("unexpected continuation")
		}
		var got []string
		for _, ent := range page {
			got = append(got, ent.Key)
		}
		want := []string{"k0", "k1", "k2", "k4", "k6", "k8", "k9"}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("range page = %v, want %v", got, want)
		}
	})
}

// TestFrontCacheExpiry is the staleness regression for TTL: a key
// resident in the hot-key front must stop being served the moment its
// deadline passes, even though expiry is engine-initiated and no write
// ever invalidated the front entry.
func TestFrontCacheExpiry(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := newTTLMap(clk, 64, 0)
		defer m.Close()

		m.Insert("hot", "v")
		m.Get("hot") // miss: reserves and installs into the front
		if v, ok := m.FrontGet("hot"); !ok || v != "v" {
			t.Fatalf("front not warmed: (%q, %v)", v, ok)
		}

		m.Expire("hot", 2000)
		// Armed but not yet due: the front may keep serving it.
		if v, ok := m.Get("hot"); !ok || v != "v" {
			t.Fatalf("armed key unreadable before deadline: (%q, %v)", v, ok)
		}

		clk.now.Store(2000)
		if v, ok := m.Get("hot"); ok {
			t.Fatalf("front served an expired key: %q", v)
		}
		if _, ok := m.FrontGet("hot"); ok {
			t.Fatal("front still holds the expired key")
		}

		// A fresh incarnation reads fresh, not through stale state.
		m.Insert("hot", "v2")
		if v, ok := m.Get("hot"); !ok || v != "v2" {
			t.Fatalf("re-inserted key = (%q, %v), want (v2, true)", v, ok)
		}
	})
}

// TestFrontCacheEviction is the staleness regression for the byte
// budget: when the engine evicts a cold key, the eviction must
// invalidate the front entry too — no write to the key ever happens, so
// without the engine-initiated invalidation hook the front would keep
// serving the evicted value forever.
func TestFrontCacheEviction(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := newTTLMap(clk, 64, 4096)
		defer m.Close()

		m.Insert("victim", "v")
		m.Get("victim") // install into the front
		if _, ok := m.FrontGet("victim"); !ok {
			t.Fatal("front not warmed")
		}

		// Blow the budget with fillers, never touching the victim:
		// it ages to the cold end and the engine evicts it.
		for i := 0; i < 2000; i++ {
			m.Insert(fmt.Sprintf("filler%04d", i), "xxxxxxxxxxxxxxxx")
		}
		if st := m.Mem(); st.Evicted == 0 {
			t.Fatalf("budget never evicted: %+v", st)
		}
		if v, ok := m.Get("victim"); ok {
			t.Fatalf("front served an evicted key: %q", v)
		}
	})
}

// TestPointOpSweepReclaims: the lazy sweep must also fire from the
// singleton Get/Insert/Delete paths, not only from the batch Apply
// paths — a library workload using only point ops would otherwise never
// physically reclaim expired keys (reads stay correct via the ghost
// consult, but residency, the deadline table and the heap grow until
// each dead key happens to be re-observed).
func TestPointOpSweepReclaims(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(1000)
		m := newTTLMap(clk, 0, 0)
		defer m.Close()

		const dying = 16
		for i := 0; i < dying; i++ {
			m.Insert(fmt.Sprintf("k%02d", i), "v")
		}
		for i := 0; i < dying; i++ {
			m.Expire(fmt.Sprintf("k%02d", i), 2000)
		}
		clk.now.Store(2000)

		// One unrelated point op per flavor; none touches a dying
		// key, yet the boundary sweep they trigger retires them all.
		m.Get("nope")
		m.Insert("other", "v")
		m.Delete("other")
		if st := m.Mem(); st.TTLs != 0 || st.Expired != dying {
			t.Fatalf("point ops left expired keys unswept: %+v, want TTLs 0 Expired %d", st, dying)
		}
		if n := m.Len(); n != 0 {
			t.Fatalf("Len after point-op sweep = %d, want 0", n)
		}
	})
}

// TestFrontCacheExpiryRetireRace hammers FrontGet across the retirement
// of an expired key's table entry. The ordering contract under test:
// FrontGet consults the expiry table BEFORE probing the front, and every
// retirement drops the front slot BEFORE removing its table entry — so
// no interleaving lets a reader that missed the (already-removed) entry
// go on to serve the dead value from the front. The reader records the
// clock before each probe: a hit whose pre-probe clock is at or past the
// deadline is a definite violation.
func TestFrontCacheExpiryRetireRace(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		clk := newFakeClock(0)
		m := newTTLMap(clk, 64, 0)
		defer m.Close()

		const iters = 200
		for it := 0; it < iters; it++ {
			base := int64(it * 1000)
			deadline := base + 500
			clk.now.Store(base)
			m.Insert("hot", "v")
			m.Get("hot") // warm the front
			m.Expire("hot", deadline)

			stop := make(chan struct{})
			done := make(chan struct{})
			violated := make(chan int64, 1)
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					before := clk.now.Load()
					if _, ok := m.FrontGet("hot"); ok && before >= deadline {
						violated <- before
						return
					}
				}
			}()

			clk.now.Store(deadline)
			m.Get("hot") // engine observation retires the entry
			close(stop)
			<-done
			select {
			case now := <-violated:
				t.Fatalf("iter %d: front served a value at clock %d, deadline %d", it, now, deadline)
			default:
			}
			m.Delete("hot")
		}
	})
}

// TestExpTableDueKeys exercises the sidecar's lazy heap directly:
// cleared and re-armed deadlines leave stale heap entries that dueKeys
// must discard, and collected keys keep their table entries (the
// engine's ghost consult retires them, not the collection).
func TestExpTableDueKeys(t *testing.T) {
	tb := newExpTable[string]()

	tb.arm("a", 50)
	tb.arm("b", 60)
	tb.arm("b", 90) // re-arm: the dl=60 heap entry goes stale
	tb.arm("c", 70)
	tb.clear("c") // cleared: the dl=70 heap entry goes stale

	keys := tb.dueKeys(80, 10, nil)
	if fmt.Sprint(keys) != "[a]" {
		t.Fatalf("dueKeys = %v, want [a] (stale entries must be discarded)", keys)
	}
	// The collected key keeps its table entry until an engine observes it.
	if !tb.expired("a", 50) || tb.expired("a", 49) {
		t.Fatal("dueKeys removed the table entry; retirement belongs to the ghost consult")
	}
	// But it is not collected twice while the sweep get is in flight.
	if again := tb.dueKeys(80, 10, nil); len(again) != 0 {
		t.Fatalf("dueKeys re-collected %v", again)
	}
	// The ghost consult retires it exactly once.
	if !tb.ghost("a", 80) {
		t.Fatal("ghost did not retire a due entry")
	}
	if tb.ghost("a", 80) {
		t.Fatal("ghost retired the same entry twice")
	}
	// b's live deadline (90) is not due yet.
	if tb.expired("b", 80) {
		t.Fatal("re-armed key reported expired at its stale deadline")
	}
	if n := tb.n.Load(); n != 1 {
		t.Fatalf("armed count = %d, want 1", n)
	}

	// Re-arming one key with a far deadline leaves a stale heap entry per
	// arm; the heap must not grow with them.
	for i := range 100000 {
		tb.arm("r", int64(1_000_000+i))
	}
	if n, h := tb.n.Load(), len(tb.h); h > 2*int(n)+64 {
		t.Fatalf("after 100000 re-arms: armed=%d heap=%d, want heap <= 2*armed+64", n, h)
	}
	if keys := tb.dueKeys(2_000_000, 10, nil); fmt.Sprint(keys) != "[b r]" {
		t.Fatalf("dueKeys after rebuilds = %v, want [b r]", keys)
	}
}
