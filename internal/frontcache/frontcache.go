// Package frontcache implements the lock-free hot-key read front that
// sits ahead of the batch pipeline: a fixed-size, power-of-two hash
// table with a bounded probe window, answering GETs for recently-read
// keys in nanoseconds instead of a full batch round trip.
//
// # Read protocol
//
// Each slot is one atomic pointer to an immutable key/value entry
// (verlib's "immutable nodes behind a versioned pointer", with the
// pointer as its own version). A reader loads the pointer and compares
// the key: one atomic load per probe slot, no retry, nothing written
// but the hit/miss counter. Entries are never mutated after publication,
// so a reader can never observe a torn key/value pair.
//
// # Pointer identity is the version
//
// Every write stores either nil or a freshly allocated entry, so a
// pointer names exactly one state of its slot: a slot that still holds
// the pointer a writer loaded has not been written since. The address
// cannot come back while anyone holds it (the garbage collector does not
// reuse live memory), which rules out ABA. Every writer is therefore one
// CAS from the pointer it saw: Reserve and Stage claim a victim slot,
// Install and Publish publish behind the reservation, Invalidate clears
// a slot holding the key. A lost CAS means another writer got there first.
//
// # Population and the install guard
//
// Population is read-triggered. Its owner (shard.Map) stages at the
// read's engine serialization point, where its writes invalidate: Stage
// claims a slot with a pending (invalid) entry whose valid twin holds
// the value read. Once the read's batch is committed, Publish swaps the
// twin in — but only if the slot still holds that pending entry (one
// CAS). Any intervening writer — an invalidation for the key, or another
// reservation that recycled the slot — has replaced the pointer, and the
// value is never published. Reserve and Ticket.Install are the same two
// steps for a caller that learns the value only after reserving.
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
// Get. A write invalidates rather than refreshes; a hot key lost to a
// write fills again on its next engine read.
// See DESIGN.md "Hot-key front cache".
package frontcache

import "sync/atomic"

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
// placeholder (!valid). Entries are never mutated after publication and
// never stored twice; writers swing the slot pointer to a fresh entry
// (or nil) instead.
type entry[K comparable, V any] struct {
	key    K
	val    V
	valid  bool
	staged *entry[K, V] // a Stage's pending entry only: the valid twin Publish swaps in
}

// reservation is a pending entry and the valid twin its install
// publishes, allocated as one object: a fill costs one allocation, not
// two. The twin is written only by the reserver that allocated it, and
// only before the CAS that publishes it, and its address differs from the
// pending entry's, so pointer identity still names each state.
type reservation[K comparable, V any] struct {
	pending, twin entry[K, V]
}

// Stats is a snapshot of a cache's counters.
type Stats struct {
	// Entries is the configured capacity in slots.
	Entries int64
	// Hits and Misses count Get outcomes.
	Hits   int64
	Misses int64
	// Reserves counts placed reservations (Reserve, Stage); Installs the
	// values published through them (Install, Publish); InstallDrops the
	// Installs refused by the pointer guard (a write or slot reuse won).
	Reserves     int64
	Installs     int64
	InstallDrops int64
	// Invalidates counts slots cleared by writes, expiries and evictions;
	// Evictions counts valid entries overwritten by reservations.
	Invalidates int64
	Evictions   int64
}

// Merge folds o into s (associative; used to merge per-shard stats).
func (s Stats) Merge(o Stats) Stats {
	s.Entries += o.Entries
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Reserves += o.Reserves
	s.Installs += o.Installs
	s.InstallDrops += o.InstallDrops
	s.Invalidates += o.Invalidates
	s.Evictions += o.Evictions
	return s
}

// Cache is one fixed-size lock-free read front. All methods are safe
// for concurrent use. The zero value is not usable; create with New.
// Callers pass the key's hash explicitly (the sharded map already has
// one per op), and a reservation retains its key inside the cache —
// callers whose key strings alias reusable buffers must pass a stable copy.
type Cache[K comparable, V any] struct {
	mask  uint64
	slots []atomic.Pointer[entry[K, V]]

	rot atomic.Uint64 // reservation counter driving the eviction rate limit

	hits, misses                  atomic.Int64
	reserves, installs, instDrops atomic.Int64
	invalidates, evictions        atomic.Int64
}

// New creates a cache with at least entries slots (rounded up to a
// power of two, minimum twice the probe window).
func New[K comparable, V any](entries int) *Cache[K, V] {
	n := 2 * probeWindow
	for n < entries {
		n <<= 1
	}
	return &Cache[K, V]{mask: uint64(n - 1), slots: make([]atomic.Pointer[entry[K, V]], n)}
}

// bucket mixes h into a slot index. The sharded map derives both the
// shard and the bucket from one maphash value; the multiply-xor spread
// keeps the bucket bits independent of the shard modulus.
func (c *Cache[K, V]) bucket(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h & c.mask
}

// Get answers k from the front if a published entry holds it. Wait-free:
// one atomic load per probe slot.
func (c *Cache[K, V]) Get(h uint64, k K) (V, bool) {
	idx := c.bucket(h)
	for i := uint64(0); i < probeWindow; i++ {
		if e := c.slots[(idx+i)&c.mask].Load(); e != nil && e.valid && e.key == k {
			c.hits.Add(1)
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
	c    *Cache[K, V]
	s    *atomic.Pointer[entry[K, V]]
	e    *entry[K, V] // the pending entry: the install guard, and the retained key
	twin *entry[K, V] // the pending entry's valid twin, which Install publishes
}

// Reserve claims a slot for k, so an Invalidate of k between the
// reservation and its install kills the install.
// It declines (zero Ticket) when k is already published or pending,
// when the window is full of other live keys and the eviction rate
// limit says no, or when it loses a slot race — population is
// opportunistic.
//
// The reservation retains its key until the slot recycles. mk, when
// non-nil, is called to materialize that retained key — only once a
// victim slot has been picked, just before the claiming CAS — so a
// caller whose k aliases a reusable buffer can defer the stable copy to
// the claims that need it instead of cloning on every miss. A claim
// lost to a concurrent writer wastes that one copy. nil mk retains k
// itself.
func (c *Cache[K, V]) Reserve(h uint64, k K, mk func() K) Ticket[K, V] {
	var zero V
	return c.reserve(h, k, mk, zero, false)
}

// Stage is Reserve with the value known: the pending entry's twin
// already holds v, for Publish to swap in. k is retained.
func (c *Cache[K, V]) Stage(h uint64, k K, v V) { c.reserve(h, k, nil, v, true) }

// Publish publishes the value staged for k, if a Stage's pending entry
// for k is still in place; otherwise it does nothing.
func (c *Cache[K, V]) Publish(h uint64, k K) {
	idx := c.bucket(h)
	for i := uint64(0); i < probeWindow; i++ {
		s := &c.slots[(idx+i)&c.mask]
		if e := s.Load(); e != nil && e.staged != nil && e.key == k && s.CompareAndSwap(e, e.staged) {
			c.installs.Add(1)
			return
		}
	}
}

// reserve is Reserve and Stage; with staged set, the twin holds v before
// the claiming CAS publishes the pending entry that points to it.
func (c *Cache[K, V]) reserve(h uint64, k K, mk func() K, v V, staged bool) Ticket[K, V] {
	idx := c.bucket(h)
	var victim *atomic.Pointer[entry[K, V]]
	var old *entry[K, V]
	rank := 0 // 1 = valid other key (rate-limited), 2 = stale pending, 3 = empty
	for i := uint64(0); i < probeWindow; i++ {
		s := &c.slots[(idx+i)&c.mask]
		e := s.Load()
		switch {
		case e == nil:
			if rank < 3 {
				victim, old, rank = s, e, 3
			}
		case e.key == k:
			return Ticket[K, V]{} // already cached, or another fill of k is in flight
		case !e.valid:
			if rank < 2 {
				victim, old, rank = s, e, 2
			}
		default:
			if rank < 1 {
				victim, old, rank = s, e, 1
			}
		}
	}
	if victim == nil {
		return Ticket[K, V]{}
	}
	if rank == 1 && c.rot.Add(1)%evictEvery != 0 {
		return Ticket[K, V]{} // don't let cold misses churn hot entries
	}
	if mk != nil {
		k = mk()
	}
	r := &reservation[K, V]{pending: entry[K, V]{key: k}, twin: entry[K, V]{key: k, val: v, valid: true}}
	if staged {
		r.pending.staged = &r.twin
	}
	if !victim.CompareAndSwap(old, &r.pending) {
		return Ticket[K, V]{} // slot moved since the scan; skip rather than contend
	}
	if rank == 1 {
		c.evictions.Add(1)
	}
	c.reserves.Add(1)
	return Ticket[K, V]{c: c, s: victim, e: &r.pending, twin: &r.twin}
}

// Install publishes a value behind a reservation: the value when the
// key was present (ok), or clears the placeholder when it was absent.
// The single CAS from the pending entry is the staleness guard: if
// anything wrote the slot since Reserve — an Invalidate for this key,
// or another reservation recycling the slot — the install is dropped.
// It reports whether a value was published. Install a ticket at most
// once.
func (t Ticket[K, V]) Install(val V, ok bool) bool {
	if t.s == nil {
		return false
	}
	var e *entry[K, V]
	if ok {
		// The published key is the reservation's retained copy, not a
		// caller argument; the twin is unpublished until this CAS.
		e = t.twin
		*e = entry[K, V]{key: t.e.key, val: val, valid: true}
	}
	if !t.s.CompareAndSwap(t.e, e) {
		t.c.instDrops.Add(1)
		return false
	}
	if ok {
		t.c.installs.Add(1)
	}
	return ok
}

// Invalidate clears every slot in k's probe window that holds k —
// published or pending — so in-flight installs for k are dropped.
// Called from the engine's per-key resolve hooks (see "The write
// contract" above). Unlike Get it must not skip: a lost CAS means the
// slot moved, and the new pointer is checked again.
func (c *Cache[K, V]) Invalidate(h uint64, k K) {
	idx := c.bucket(h)
	for i := uint64(0); i < probeWindow; i++ {
		s := &c.slots[(idx+i)&c.mask]
		for {
			e := s.Load()
			if e == nil || e.key != k {
				break
			}
			if s.CompareAndSwap(e, nil) {
				c.invalidates.Add(1)
				break
			}
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
		Reserves:     c.reserves.Load(),
		Installs:     c.installs.Load(),
		InstallDrops: c.instDrops.Load(),
		Invalidates:  c.invalidates.Load(),
		Evictions:    c.evictions.Load(),
	}
}
