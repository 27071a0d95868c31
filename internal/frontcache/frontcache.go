// Package frontcache implements the lock-free hot-key read front that
// sits ahead of the batch pipeline: a fixed-size, power-of-two hash
// table with a bounded probe window, answering GETs for recently-read
// keys in nanoseconds instead of a full batch round trip.
//
// # Version protocol
//
// Each slot carries a version/sequence word (verlib-style seqlock) next
// to an atomic pointer to an immutable key/value entry. Readers are
// wait-free: load the version, load the entry, reload the version; an
// odd version or a changed version means a writer interleaved — retry
// once, then fall back to the batch path (Get never blocks and never
// spins unboundedly). The entry pointer is atomic and entries are
// immutable, so a reader can never observe a torn key/value pair; the
// version validation additionally pins the read to a moment when no
// writer was active, which is what the install guard below builds on.
//
// Writers (install, invalidate) take the slot's seqlock: CAS the version
// from even to odd, swing the pointer, store version+2. The critical
// section is two atomic stores, so invalidators spin only momentarily.
//
// # Population and the install guard
//
// Population is read-triggered: a reader that misses calls Reserve
// before falling back to the batch path, which claims a slot with a
// pending (invalid) entry for the key and captures the slot version.
// When the fallback result arrives, Ticket.Install publishes it — but
// only if the slot version is still exactly the reservation version
// (one CAS). Any intervening writer — an invalidation for a batch that
// wrote the key, or another reservation that recycled the slot — has
// bumped the version, so a stale value can never be installed over a
// newer committed write. The reservation existing *before* the fallback
// op is submitted is what makes invalidation airtight: if the fallback
// read resolved before a write to the key, the reservation predates
// that write's invalidation, which finds and kills it.
//
// # The write contract
//
// The cache itself knows nothing about writes; its owner (shard.Map)
// must call Invalidate for a written key at the key's engine
// serialization point — as the write resolves inside the engine, before
// any result of its batch is released and so before any later operation
// on the key can read the new value. Invalidating any later (after the
// batch's results are collected, say) is NOT safe, however tempting
// "clearing commutes" sounds: a concurrent reader's engine read can
// return the new value while the old one is still cached for its next
// Get. Invalidation-only (rather than refresh-in-place) keeps the engine
// hook trivial; a hot key lost to a write re-installs on its next miss.
// See DESIGN.md "Hot-key front cache".
package frontcache

import (
	"runtime"
	"sync/atomic"

	"repro/internal/obs"
)

// probeWindow is the bounded linear-probe length: a key lives in one of
// the probeWindow slots starting at its hash bucket. Small keeps both
// the read path and the invalidation sweep O(1) with a tiny constant.
const probeWindow = 4

// evictEvery rate-limits how often a reservation may overwrite a slot
// that holds a live (valid) entry for another key: one reservation in
// evictEvery gets to evict. Cold keys therefore cannot churn a window
// full of hot entries, while a shifted working set still turns the
// cache over within a few misses per slot.
const evictEvery = 8

// entry is an immutable published key/value (valid) or a reservation
// placeholder (!valid). Entries are never mutated after publication;
// writers swing the slot pointer to a fresh entry instead.
type entry[K comparable, V any] struct {
	key   K
	val   V
	valid bool
}

// slot is one hash-table slot: the seqlock version word (even = stable,
// odd = writer in critical section) and the entry pointer. Every
// pointer swing happens inside a version lock cycle, so an unchanged
// version implies an unchanged pointer — the install guard's invariant.
type slot[K comparable, V any] struct {
	ver atomic.Uint64
	p   atomic.Pointer[entry[K, V]]
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	// Entries is the configured capacity in slots.
	Entries int64
	// Hits and Misses count Get outcomes; Conflicts counts Gets that
	// saw the version word move under them and fell back after one
	// retry (they also count as misses).
	Hits      int64
	Misses    int64
	Conflicts int64
	// Reserves counts placed reservations; Installs the fallback values
	// published through them; InstallDrops the installs refused by the
	// version guard (an invalidation or slot reuse won the race).
	Reserves     int64
	Installs     int64
	InstallDrops int64
	// Invalidates counts slots cleared by writes, expiries and evictions;
	// Evictions counts valid entries overwritten by reservations.
	Invalidates int64
	Evictions   int64
	// HitNS is the cached-GET latency histogram (nanoseconds per
	// front-answered Get, measured inside Get).
	HitNS obs.HistSnapshot
}

// Merge folds o into s (associative; used to merge per-shard stats).
func (s Stats) Merge(o Stats) Stats {
	s.Entries += o.Entries
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Conflicts += o.Conflicts
	s.Reserves += o.Reserves
	s.Installs += o.Installs
	s.InstallDrops += o.InstallDrops
	s.Invalidates += o.Invalidates
	s.Evictions += o.Evictions
	s.HitNS = s.HitNS.Merge(o.HitNS)
	return s
}

// HitRatio returns hits / (hits + misses), 0 when idle.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is one fixed-size lock-free read front. All methods are safe
// for concurrent use. The zero value is not usable; create with New.
// Callers pass the key's hash explicitly (the sharded map already has
// one per op), and Reserve retains its key inside the cache — callers
// whose key strings alias reusable buffers must pass a stable copy.
type Cache[K comparable, V any] struct {
	mask  uint64
	slots []slot[K, V]

	rot atomic.Uint64 // reservation counter driving the eviction rate limit

	hits, misses, conflicts       atomic.Int64
	reserves, installs, instDrops atomic.Int64
	invalidates, evictions        atomic.Int64
	hitNS                         obs.Histogram
}

// New creates a cache with at least entries slots (rounded up to a
// power of two, minimum twice the probe window).
func New[K comparable, V any](entries int) *Cache[K, V] {
	n := 2 * probeWindow
	for n < entries {
		n <<= 1
	}
	return &Cache[K, V]{mask: uint64(n - 1), slots: make([]slot[K, V], n)}
}

// Entries returns the slot capacity.
func (c *Cache[K, V]) Entries() int { return len(c.slots) }

// bucket mixes h into a slot index. The sharded map derives both the
// shard and the bucket from one maphash value; the multiply-xor spread
// keeps the bucket bits independent of the shard modulus.
func (c *Cache[K, V]) bucket(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & c.mask
}

// Get answers k from the front if a stable published entry holds it.
// Wait-free: at most one validation retry per slot, then miss.
func (c *Cache[K, V]) Get(h uint64, k K) (V, bool) {
	t0 := obs.Now()
	idx := c.bucket(h)
	for i := uint64(0); i < probeWindow; i++ {
		s := &c.slots[(idx+i)&c.mask]
		for attempt := 0; attempt < 2; attempt++ {
			v1 := s.ver.Load()
			e := s.p.Load()
			if e == nil || e.key != k || !e.valid {
				break // not here (or still pending): next slot
			}
			if v1&1 == 1 || s.ver.Load() != v1 {
				// A writer moved the version under us. One retry, then
				// fall back to the batch path rather than spin.
				if attempt == 1 {
					c.conflicts.Add(1)
					c.misses.Add(1)
					var zero V
					return zero, false
				}
				continue
			}
			c.hits.Add(1)
			c.hitNS.Record(obs.Now() - t0)
			return e.val, true
		}
	}
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Ticket is a pending reservation returned by Reserve. The zero Ticket
// is valid and inert (Install on it is a no-op) — Reserve returns it
// when it declines to reserve.
type Ticket[K comparable, V any] struct {
	c *Cache[K, V]
	s *slot[K, V]
	e *entry[K, V] // the pending entry; its key is the retained stable copy
	v uint64       // slot version at reservation time: the install guard
}

// Reserve claims a slot for k ahead of a fallback read, so a write's
// Invalidate can find (and kill) the in-flight population if k is
// written before the fallback value installs.
// It declines (zero Ticket) when k is already published, when the
// window is full of other live keys and the eviction rate limit says
// no, or when it loses a slot race — population is opportunistic.
//
// The reservation retains its key until the slot recycles. mk, when
// non-nil, is called to materialize that retained key — exactly once,
// and only when a new slot is actually claimed — so a caller whose k
// aliases a reusable buffer (the server's read arena) can defer the
// stable copy to the claims that need it instead of cloning on every
// miss. nil mk retains k itself.
func (c *Cache[K, V]) Reserve(h uint64, k K, mk func() K) Ticket[K, V] {
	idx := c.bucket(h)
	var victim *slot[K, V]
	rank := 0 // 1 = valid other key (rate-limited), 2 = stale pending, 3 = empty
	for i := uint64(0); i < probeWindow; i++ {
		s := &c.slots[(idx+i)&c.mask]
		e := s.p.Load()
		switch {
		case e == nil:
			if rank < 3 {
				victim, rank = s, 3
			}
		case e.key == k:
			if e.valid {
				return Ticket[K, V]{} // already cached; the next Get hits
			}
			// A concurrent reader reserved k first: share the pending
			// entry. Whichever install's version CAS wins publishes;
			// the other drops (both values come from fallback reads
			// with live reservations, so either is fresh).
			v := s.ver.Load()
			if v&1 == 1 || s.p.Load() != e {
				return Ticket[K, V]{}
			}
			return Ticket[K, V]{c: c, s: s, e: e, v: v}
		case !e.valid:
			if rank < 2 {
				victim, rank = s, 2
			}
		default:
			if rank < 1 {
				victim, rank = s, 1
			}
		}
	}
	if victim == nil {
		return Ticket[K, V]{}
	}
	if rank == 1 && c.rot.Add(1)%evictEvery != 0 {
		return Ticket[K, V]{} // don't let cold misses churn hot entries
	}
	v := victim.ver.Load()
	if v&1 == 1 || !victim.ver.CompareAndSwap(v, v+1) {
		return Ticket[K, V]{} // slot busy; skip rather than contend
	}
	if rank == 1 {
		c.evictions.Add(1)
	}
	if mk != nil {
		k = mk()
	}
	e := &entry[K, V]{key: k}
	victim.p.Store(e)
	victim.ver.Store(v + 2)
	c.reserves.Add(1)
	return Ticket[K, V]{c: c, s: victim, e: e, v: v + 2}
}

// Reserved reports whether the ticket carries a live reservation (a
// zero Ticket, or a declined Reserve, does not).
func (t Ticket[K, V]) Reserved() bool { return t.s != nil }

// Install publishes the fallback result behind a reservation: the value
// when the key was present (ok), or clears the placeholder when it was
// absent. The single version CAS is the staleness guard: if anything
// touched the slot since Reserve — an Invalidate for this key, or
// another reservation recycling the slot — the install is
// dropped. It reports whether a value was published.
func (t Ticket[K, V]) Install(val V, ok bool) bool {
	if t.s == nil {
		return false
	}
	if !t.s.ver.CompareAndSwap(t.v, t.v+1) {
		t.c.instDrops.Add(1)
		return false
	}
	if ok {
		// The published key is the reservation's retained copy, not a
		// caller argument: shared tickets install under the original
		// reserver's stable key.
		t.s.p.Store(&entry[K, V]{key: t.e.key, val: val, valid: true})
	} else {
		t.s.p.Store(nil)
	}
	t.s.ver.Store(t.v + 2)
	if ok {
		t.c.installs.Add(1)
	}
	return ok
}

// Invalidate clears every slot in k's probe window that holds k —
// published or pending — bumping each slot's version so in-flight
// installs for k are dropped. Called from the engine's per-key resolve
// hooks (see "The write contract" above). Unlike Get it must not skip: it spins
// (briefly — writer critical sections are two stores) until each
// matching slot is cleared.
func (c *Cache[K, V]) Invalidate(h uint64, k K) {
	idx := c.bucket(h)
	for i := uint64(0); i < probeWindow; i++ {
		s := &c.slots[(idx+i)&c.mask]
		for spins := 0; ; spins++ {
			e := s.p.Load()
			if e == nil || e.key != k {
				break
			}
			v := s.ver.Load()
			if v&1 == 1 || !s.ver.CompareAndSwap(v, v+1) {
				if spins%64 == 63 {
					runtime.Gosched()
				}
				continue
			}
			// Re-check under the lock: the pointer may have moved between
			// the load and the CAS (a full writer cycle fits in between).
			if e2 := s.p.Load(); e2 != nil && e2.key == k {
				s.p.Store(nil)
				c.invalidates.Add(1)
			}
			s.ver.Store(v + 2)
			break
		}
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Entries:      int64(len(c.slots)),
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Conflicts:    c.conflicts.Load(),
		Reserves:     c.reserves.Load(),
		Installs:     c.installs.Load(),
		InstallDrops: c.instDrops.Load(),
		Invalidates:  c.invalidates.Load(),
		Evictions:    c.evictions.Load(),
		HitNS:        c.hitNS.Snapshot(),
	}
}
