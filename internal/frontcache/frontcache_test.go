package frontcache

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testHash is a splitmix64-style mix — good enough spread for tests,
// and deterministic so fuzz inputs replay exactly.
func testHash(k uint64) uint64 {
	k += 0x9e3779b97f4a7c15
	k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9
	k = (k ^ (k >> 27)) * 0x94d049bb133111eb
	return k ^ (k >> 31)
}

func TestFrontCacheBasic(t *testing.T) {
	c := New[uint64, string](64)
	h := testHash(7)

	if _, ok := c.Get(h, 7); ok {
		t.Fatal("hit on empty cache")
	}
	tk := c.Reserve(h, 7, nil)
	if tk.s == nil {
		t.Fatal("Reserve declined on empty cache")
	}
	// Pending reservations must not answer reads, and a second
	// reservation of a pending key declines.
	if _, ok := c.Get(h, 7); ok {
		t.Fatal("hit on pending reservation")
	}
	if tk2 := c.Reserve(h, 7, nil); tk2.s != nil {
		t.Fatal("Reserve claimed a slot for a key with a fill in flight")
	}
	if !tk.Install("seven", true) {
		t.Fatal("Install failed with no interference")
	}
	if v, ok := c.Get(h, 7); !ok || v != "seven" {
		t.Fatalf("Get after Install = %q, %v", v, ok)
	}
	// Reserve on a published key declines (nothing to populate).
	if tk2 := c.Reserve(h, 7, nil); tk2.s != nil {
		t.Fatal("Reserve claimed a slot for an already-published key")
	}

	c.Invalidate(h, 7)
	if _, ok := c.Get(h, 7); ok {
		t.Fatal("hit after Invalidate")
	}

	st := c.Stats()
	if st.Hits != 1 || st.Installs != 1 || st.Invalidates != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFrontCacheInstallDroppedAfterInvalidate(t *testing.T) {
	c := New[uint64, string](64)
	h := testHash(1)
	tk := c.Reserve(h, 1, nil)
	if tk.s == nil {
		t.Fatal("Reserve declined")
	}
	// A write batch commits between the reservation and the fallback
	// result: the invalidation sweep must kill the in-flight install.
	c.Invalidate(h, 1)
	if tk.Install("stale", true) {
		t.Fatal("stale Install succeeded after Invalidate")
	}
	if _, ok := c.Get(h, 1); ok {
		t.Fatal("stale value visible after dropped install")
	}
	if st := c.Stats(); st.InstallDrops != 1 {
		t.Fatalf("InstallDrops = %d, want 1", st.InstallDrops)
	}

	// The recycled slot: reserve k, invalidate k, reserve k again. The
	// first ticket's pending entry is gone from the slot even though the
	// slot again holds a pending entry for the same key, so its install
	// drops and the second one publishes.
	t1 := c.Reserve(h, 1, nil)
	c.Invalidate(h, 1)
	t2 := c.Reserve(h, 1, nil)
	if t1.s == nil || t2.s == nil {
		t.Fatal("Reserve declined")
	}
	if t1.Install("stale", true) {
		t.Fatal("install through a recycled slot succeeded")
	}
	if !t2.Install("fresh", true) {
		t.Fatal("second reservation's install dropped")
	}
	if v, ok := c.Get(h, 1); !ok || v != "fresh" {
		t.Fatalf("Get = %q, %v; want the second reservation's value", v, ok)
	}
}

// TestAllocsFrontCacheFill pins the cost of a fill through Reserve's mk:
// a miss, a reservation whose retained key is cloned out of a reusable
// buffer, and an install. The clone and the reservation (pending entry
// and valid twin in one object) are the two allocations; the install
// allocates nothing. The shard layer fills through Stage and Publish
// (TestAllocsFrontCacheStage).
func TestAllocsFrontCacheFill(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	c := New[string, string](64)
	k := "front-fill-key"
	h := testHash(uint64(len(k)))
	mk := func() string { return strings.Clone(k) }
	fill := func() {
		if _, ok := c.Get(h, k); ok {
			t.Fatal("hit before the fill")
		}
		if !c.Reserve(h, k, mk).Install("v", true) {
			t.Fatal("install dropped")
		}
		c.Invalidate(h, k)
	}
	const ceiling = 2
	if n := testing.AllocsPerRun(100, fill); n > ceiling {
		t.Errorf("front fill: %.1f allocs, ceiling %d", n, ceiling)
	}
}

// TestFrontCacheStagePublish checks the two steps of a fill: a staged
// value is invisible until Publish, a second Stage of a pending or
// published key declines, and an Invalidate between the steps kills the
// staged value, so its Publish publishes nothing.
func TestFrontCacheStagePublish(t *testing.T) {
	c := New[uint64, string](64)
	h := testHash(5)
	c.Stage(h, 5, "five")
	if _, ok := c.Get(h, 5); ok {
		t.Fatal("hit on a staged, unpublished value")
	}
	c.Stage(h, 5, "other")
	c.Publish(h, 5)
	if v, ok := c.Get(h, 5); !ok || v != "five" {
		t.Fatalf("Get after Publish = %q, %v; want the first staged value", v, ok)
	}
	c.Stage(h, 5, "again")
	c.Publish(h, 5)
	if v, ok := c.Get(h, 5); !ok || v != "five" {
		t.Fatalf("Get = %q, %v; a Stage of a published key must decline", v, ok)
	}

	c.Invalidate(h, 5)
	c.Stage(h, 5, "stale")
	c.Invalidate(h, 5)
	c.Publish(h, 5)
	if v, ok := c.Get(h, 5); ok {
		t.Fatalf("Get = %q after the staged value was invalidated; want a miss", v)
	}
	// A Reserve's pending entry carries no staged value: Publish leaves
	// it to its ticket.
	tk := c.Reserve(h, 5, nil)
	c.Publish(h, 5)
	if _, ok := c.Get(h, 5); ok {
		t.Fatal("Publish published a reservation without a staged value")
	}
	if !tk.Install("ticket", true) {
		t.Fatal("install behind the reservation dropped")
	}
	if st := c.Stats(); st.Reserves != 3 || st.Installs != 2 {
		t.Fatalf("stats = %+v, want 3 reserves and 2 installs", st)
	}
}

// TestAllocsFrontCacheStage pins the cost of the shard layer's fill: a
// miss, a staged value (pending entry and valid twin in one object) and
// its publication. The key is the caller's own, so nothing is copied.
func TestAllocsFrontCacheStage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	c := New[string, string](64)
	k := "front-stage-key"
	h := testHash(uint64(len(k)))
	fill := func() {
		if _, ok := c.Get(h, k); ok {
			t.Fatal("hit before the fill")
		}
		c.Stage(h, k, "v")
		c.Publish(h, k)
		if _, ok := c.Get(h, k); !ok {
			t.Fatal("miss after the fill")
		}
		c.Invalidate(h, k)
	}
	const ceiling = 1
	if n := testing.AllocsPerRun(100, fill); n > ceiling {
		t.Errorf("front stage and publish: %.1f allocs, ceiling %d", n, ceiling)
	}
}

func TestFrontCacheZeroTicket(t *testing.T) {
	var tk Ticket[uint64, string]
	if tk.Install("x", true) {
		t.Fatal("zero Ticket installed")
	}
}

func TestFrontCacheAbsentInstallClearsPending(t *testing.T) {
	c := New[uint64, string](64)
	h := testHash(3)
	tk := c.Reserve(h, 3, nil)
	if tk.Install("", false) {
		t.Fatal("Install(ok=false) reported a publish")
	}
	if tk.s.Load() != nil {
		t.Fatal("absent install left the pending placeholder behind")
	}
}

func TestFrontCacheEvictionRateLimit(t *testing.T) {
	// A window saturated with live entries only yields to one
	// reservation in evictEvery.
	c := New[uint64, string](probeWindow * 2)
	h := testHash(0)
	// Fill slot 0's whole probe window with distinct live keys that all
	// map there (same hash, different keys — the cache only compares
	// keys within the probe window).
	for k := uint64(100); k < 100+probeWindow; k++ {
		tk := c.Reserve(h, k, nil)
		if tk.s == nil || !tk.Install("v", true) {
			t.Fatalf("setup reserve/install failed for %d", k)
		}
	}
	evicted := 0
	for i := 0; i < 4*evictEvery; i++ {
		if tk := c.Reserve(h, uint64(1000+i), nil); tk.s != nil {
			evicted++
			tk.Install("w", true)
		}
	}
	if evicted == 0 || evicted > 4*evictEvery/evictEvery+1 {
		t.Fatalf("evicting reserves = %d over %d attempts (limit 1/%d)", evicted, 4*evictEvery, evictEvery)
	}
}

// fuzzModel drives one op against the cache and an exact mirror.
// Every mirror mutation invalidates, matching the write contract the
// shard layer's engine hooks keep — under that coupling a front hit must
// equal the mirror exactly (a reservation's stale install is killed
// by the pointer guard, and sequentially at most one entry per key
// can be live).
type fuzzPending struct {
	tk  Ticket[uint64, uint64]
	k   uint64
	val uint64
	ok  bool
}

func fuzzCheck(t *testing.T, c *Cache[uint64, uint64], mirror map[uint64]uint64, k uint64) {
	t.Helper()
	if v, ok := c.Get(testHash(k), k); ok {
		want, present := mirror[k]
		if !present {
			t.Fatalf("key %d: hit %d but mirror has no entry", k, v)
		}
		if v != want {
			t.Fatalf("key %d: hit %d, mirror %d (stale read)", k, v, want)
		}
	}
}

func FuzzFrontCache(f *testing.F) {
	f.Add([]byte{0, 1, 1, 1, 2, 0, 0, 1, 3, 1})
	f.Add([]byte{1, 0, 3, 0, 2, 0, 0, 0})             // reserve, write, install-stale
	f.Add([]byte{1, 5, 1, 5, 2, 0, 2, 0, 0, 5})       // re-reserve of a pending key declines; install
	f.Add([]byte{3, 2, 3, 2, 3, 2, 0, 2, 1, 2, 2, 0}) // repeated writes
	// The recycled slot: reserve, write, re-reserve, install both.
	f.Add([]byte{3, 3, 1, 3, 3, 3, 1, 3, 2, 0, 2, 0, 0, 3})
	f.Add([]byte{3, 4, 4, 4, 0, 4, 5, 4, 0, 4})             // stage, read (pending), publish, read
	f.Add([]byte{3, 6, 4, 6, 3, 6, 5, 6, 4, 6, 5, 6, 0, 6}) // a write kills a staged value; restage
	f.Fuzz(func(t *testing.T, data []byte) {
		const numKeys = 8 // small space over a tiny cache: collisions guaranteed
		c := New[uint64, uint64](16)
		mirror := make(map[uint64]uint64)
		var pending []fuzzPending
		var seq uint64
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i]%6, uint64(data[i+1])%numKeys
			k := arg
			switch op {
			case 0: // read
				fuzzCheck(t, c, mirror, k)
			case 1: // reserve ahead of a fallback read of the mirror
				val, ok := mirror[k]
				tk := c.Reserve(testHash(k), k, nil)
				if tk.s != nil {
					pending = append(pending, fuzzPending{tk, k, val, ok})
				}
			case 2: // a fallback result arrives: install the captured value
				if len(pending) > 0 {
					j := int(arg) % len(pending)
					p := pending[j]
					pending = append(pending[:j], pending[j+1:]...)
					p.tk.Install(p.val, p.ok)
					fuzzCheck(t, c, mirror, p.k)
				}
			case 3: // write batch commits: mutate mirror, then invalidate
				seq++
				if seq%5 == 0 {
					delete(mirror, k)
				} else {
					mirror[k] = seq
				}
				c.Invalidate(testHash(k), k)
				fuzzCheck(t, c, mirror, k)
			case 4: // an engine read finds k resident: stage its value
				if val, ok := mirror[k]; ok {
					c.Stage(testHash(k), k, val)
				}
				fuzzCheck(t, c, mirror, k)
			case 5: // the read's batch commits: publish what is staged
				c.Publish(testHash(k), k)
				fuzzCheck(t, c, mirror, k)
			}
		}
		for k := uint64(0); k < numKeys; k++ {
			fuzzCheck(t, c, mirror, k)
		}
	})
}

// checkedVal carries its own checksum so a torn read (half-written
// value observed) is detectable independently of the race detector.
type checkedVal struct {
	seq int64
	chk int64
}

// TestFrontCacheConcurrent hammers one cache from reader and writer
// goroutines and asserts the two properties the server depends on:
// no torn values (checksum always matches) and no stale reads after
// release (a hit observed after a writer finished store→invalidate
// carries at least that writer's sequence). Run under -race in CI.
func TestFrontCacheConcurrent(t *testing.T) {
	const (
		numKeys = 16
		writers = 2
		readers = 4
		opsPerW = 20000
	)
	c := New[uint64, checkedVal](32)
	var engine, released [numKeys]atomic.Int64 // source of truth / post-invalidate floor
	var stop atomic.Bool
	var wWG, rWG sync.WaitGroup

	for r := 0; r < readers; r++ {
		rWG.Add(1)
		go func(r int) {
			defer rWG.Done()
			rng := uint64(r) + 1
			for !stop.Load() {
				rng = rng*6364136223846793005 + 1442695040888963407
				k := (rng >> 33) % numKeys
				floor := released[k].Load()
				if v, ok := c.Get(testHash(k), k); ok {
					if v.chk != v.seq*31 {
						t.Errorf("torn read: seq=%d chk=%d", v.seq, v.chk)
						return
					}
					if v.seq < floor {
						t.Errorf("stale read: key %d seq %d < released %d", k, v.seq, floor)
						return
					}
				} else {
					// Fallback population: reserve, read the engine,
					// install. The shard layer fills back to back inside
					// the engine; the gap here is the harder case.
					tk := c.Reserve(testHash(k), k, nil)
					seq := engine[k].Load()
					tk.Install(checkedVal{seq, seq * 31}, true)
				}
			}
		}(r)
	}

	// Writers start against a warm cache: on one P they can otherwise run
	// to completion before any reader has installed anything, and the
	// run exercises neither hits nor invalidations.
	for c.Stats().Hits == 0 {
		runtime.Gosched()
	}
	for w := 0; w < writers; w++ {
		wWG.Add(1)
		go func(w int) {
			defer wWG.Done()
			// Disjoint key ownership keeps per-key sequences monotonic.
			for i := 0; i < opsPerW; i++ {
				k := uint64(w*(numKeys/writers) + i%(numKeys/writers))
				seq := engine[k].Load() + 1
				engine[k].Store(seq)
				c.Invalidate(testHash(k), k)
				released[k].Store(seq)
			}
		}(w)
	}
	wWG.Wait() // writers finish first, then stop the readers
	stop.Store(true)
	rWG.Wait()

	st := c.Stats()
	if st.Hits == 0 || st.Invalidates == 0 {
		t.Fatalf("test exercised nothing: %+v", st)
	}
}

func BenchmarkFrontCacheGetHit(b *testing.B) {
	c := New[uint64, string](4096)
	h := testHash(42)
	c.Reserve(h, 42, nil).Install("value", true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(h, 42); !ok {
			b.Fatal("miss")
		}
	}
}
