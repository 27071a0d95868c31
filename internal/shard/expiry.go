// Per-key TTL support. Deadlines never live in the engines: the
// working-set structures stay pure recency hierarchies, and each shard
// carries a sidecar expiry table mapping key -> absolute unix-nano
// deadline, plus a lazy min-heap ordering the deadlines for the sweep.
//
// The table's state transitions are driven from the engines, through
// the core.KeyHooks installed at Map construction, so every transition
// is ordered exactly with the engine op that causes it — arming (an
// OpExpire resolving against a present key), clearing (an insert or
// delete resolving — the Wrote hook, which also drops the front slot),
// and retiring (the ghost consult when an engine
// observes a present item past its deadline, which simultaneously
// deletes the dead incarnation through the engine's normal delete
// machinery). The engines' ordered reads consult it too (the Dead
// hook), skipping expired keys without retiring them. Nothing outside
// an engine ever mutates an entry's liveness decision for a resident
// key; shard-level code only *reads* the table (front-cache deadline
// checks, Len's subtraction of expired keys, checkpoint streaming).
//
// The semantics are the usual cache contract:
//
//   - Reads treat an expired key as absent immediately ("expired is a
//     miss even before the sweep"): the engine's own resolution flips
//     the observation via the ghost consult, its range reads and Items
//     skip the key via the Dead consult, and the front cache's hit path
//     re-checks the deadline.
//   - The sweep is lazy and non-destructive: at batch commit
//     boundaries it collects due keys (dueKeys) and submits one plain
//     engine Get batch per shard — the get makes the engine *observe*
//     each due key, and the observation performs the deletion. A write
//     racing the sweep resolves first or second at the key's
//     serialization point either way; a blind table-driven delete
//     could destroy a racing fresh insert, an engine-ordered
//     observation cannot.
//
// Everything is gated on a per-shard armed-TTL count: a map that never
// saw EXPIRE pays one atomic load per batch and nothing per op.
package shard

import (
	"container/heap"
	"sync"
	"sync/atomic"
)

// sweepMax bounds how many due keys one commit-boundary sweep removes
// per shard, so a mass expiry amortizes over batches instead of stalling
// one commit.
const sweepMax = 1024

// expEntry is one heap entry: a deadline and the key it was armed for.
// Entries go stale when the key's TTL is cleared or re-armed (lazy
// deletion); the sweep re-validates against the live table, and arm
// rebuilds the heap from the table once stale entries outnumber live
// ones, so the heap stays within 2·armed+64 entries.
type expEntry[K comparable] struct {
	dl  int64
	key K
}

// expHeap is a min-heap of expEntry by deadline.
type expHeap[K comparable] []expEntry[K]

func (h expHeap[K]) Len() int           { return len(h) }
func (h expHeap[K]) Less(i, j int) bool { return h[i].dl < h[j].dl }
func (h expHeap[K]) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *expHeap[K]) Push(x any)        { *h = append(*h, x.(expEntry[K])) }
func (h *expHeap[K]) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = expEntry[K]{}
	*h = old[:n-1]
	return e
}

// expTable is one shard's expiry sidecar. The mutex is taken by the
// engine-driven hooks (arm/clear/ghost, inside the engine's per-key
// critical section — each a map operation, never blocking on anything),
// the boundary sweep's dueKeys, and the shard-level readers (front-
// cache deadline checks, Len, checkpoint stream) and the engines' Dead
// consult.
// Lock order is strictly engine locks -> table mutex; no table-holding
// path ever calls into an engine.
type expTable[K comparable] struct {
	mu sync.Mutex
	dl map[K]int64
	h  expHeap[K]

	// n is the armed-TTL count, the lock-free gate: zero means every
	// expiry path through this shard is a no-op.
	n atomic.Int64
	// nextDue is the earliest heap deadline (0 = none), letting the
	// per-batch sweep check skip the lock when nothing can be due.
	nextDue atomic.Int64
}

func newExpTable[K comparable]() *expTable[K] {
	return &expTable[K]{dl: make(map[K]int64)}
}

func (t *expTable[K]) publishNext() {
	if len(t.h) == 0 {
		t.nextDue.Store(0)
	} else {
		t.nextDue.Store(t.h[0].dl)
	}
}

// arm sets k's absolute deadline (dl > 0), or clears it (dl == 0).
func (t *expTable[K]) arm(k K, dl int64) {
	if dl == 0 {
		t.clear(k)
		return
	}
	t.mu.Lock()
	if _, had := t.dl[k]; !had {
		t.n.Add(1)
	}
	t.dl[k] = dl
	heap.Push(&t.h, expEntry[K]{dl: dl, key: k})
	if len(t.h) > 2*len(t.dl)+64 {
		// Mostly stale (re-armed or cleared keys): rebuild from the table.
		// Amortized O(1) per arm — at least len(dl)+64 arms since the
		// last rebuild pay for this one's O(len(dl)).
		h := t.h[:0]
		for k, dl := range t.dl {
			h = append(h, expEntry[K]{dl: dl, key: k})
		}
		clear(t.h[len(h):])
		t.h = h
		heap.Init(&t.h)
	}
	t.publishNext()
	t.mu.Unlock()
}

// clear removes k's TTL if armed, reporting whether an entry was
// actually removed. The heap entry goes stale and is skipped by the
// sweep's re-validation.
func (t *expTable[K]) clear(k K) bool {
	if t.n.Load() == 0 {
		return false
	}
	t.mu.Lock()
	_, had := t.dl[k]
	if had {
		delete(t.dl, k)
		t.n.Add(-1)
	}
	t.mu.Unlock()
	return had
}

// ghost is the engine-facing retire check (core.KeyHooks.Ghost): if k
// is armed with a deadline at or before now, the entry is removed and
// ghost reports true — the calling engine is observing k's resident
// incarnation and will delete it in the same critical section. At most
// one observer can win (the removal is atomic under the table lock),
// so an expired incarnation is retired exactly once.
func (t *expTable[K]) ghost(k K, now int64) bool {
	if t.n.Load() == 0 {
		return false
	}
	t.mu.Lock()
	dl, ok := t.dl[k]
	if ok && dl <= now {
		delete(t.dl, k)
		t.n.Add(-1)
		t.mu.Unlock()
		return true
	}
	t.mu.Unlock()
	return false
}

// expired reports whether k is armed with a deadline at or before now.
func (t *expTable[K]) expired(k K, now int64) bool {
	if t.n.Load() == 0 {
		return false
	}
	t.mu.Lock()
	dl, ok := t.dl[k]
	t.mu.Unlock()
	return ok && dl <= now
}

// dueKeys pops up to max heap entries whose deadlines are at or before
// now and appends their keys to dst. The dl-map entries are left in
// place: the sweep's engine Get batch makes the engines observe these
// keys, and the observation's ghost consult retires each entry at the
// key's serialization point (or a racing write clears it first, and
// the get degrades to a harmless read). Popping the heap entries is
// what stops the same key from being re-collected while its sweep get
// is in flight. Stale heap entries (cleared or re-armed TTLs) are
// discarded for free. A heap rebuild (arm) restores the entries of every
// armed key, so it can re-collect a key whose sweep get is still in
// flight; that costs one redundant get, since ghost retirement happens
// exactly once.
func (t *expTable[K]) dueKeys(now int64, max int, dst []K) []K {
	if nd := t.nextDue.Load(); nd == 0 || nd > now {
		return dst
	}
	t.mu.Lock()
	for len(t.h) > 0 && t.h[0].dl <= now && max > 0 {
		e := heap.Pop(&t.h).(expEntry[K])
		dl, ok := t.dl[e.key]
		if !ok || dl != e.dl {
			continue // stale: cleared or re-armed since this entry was pushed
		}
		dst = append(dst, e.key)
		max--
	}
	t.publishNext()
	t.mu.Unlock()
	return dst
}

// expiredCount counts armed keys already past now — the expired but
// unswept keys Len() must not report. O(armed TTLs in this shard); only
// walked when TTLs are in use.
func (t *expTable[K]) expiredCount(now int64) int {
	if t.n.Load() == 0 {
		return 0
	}
	n := 0
	t.mu.Lock()
	for _, dl := range t.dl {
		if dl <= now {
			n++
		}
	}
	t.mu.Unlock()
	return n
}

// entries visits every armed (key, deadline) pair — the checkpoint
// stream's expiry section. The visit runs under the table lock; keep it
// cheap (the caller buffers).
func (t *expTable[K]) entries(visit func(k K, dl int64)) {
	t.mu.Lock()
	for k, dl := range t.dl {
		visit(k, dl)
	}
	t.mu.Unlock()
}
