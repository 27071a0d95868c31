package core

import (
	"cmp"
	"sync/atomic"
	"unsafe"
)

// Bounded-memory accounting. A memAcct tracks the approximate resident
// bytes of one engine's items and drives eviction from the coldest end
// when a budget is set. The counter is maintained by the engine's
// single-threaded batch run (one uncontended atomic add per mutation —
// nothing on the per-op submit path), and read by anyone (Bytes, STATS,
// the shard front-end's budget checks).
//
// "Approximate" is a contract, not an apology: per item we charge the
// key bytes, the value bytes and a flat itemOverhead. The budget bounds
// the structure's data footprint; Go heap overhead (allocator size
// classes, GC headroom) rides on top, which is why the soak criterion
// compares engine bytes — not RSS — against the budget.

// itemOverhead is the flat per-item structural charge in bytes. It is
// still a charge, and still 96, not the footprint: budgets, eviction points
// and the standing benchmark's hit ratios are all computed from it —
// bench/spec.go mirrors it as residentPerItem to size cache_scan_d1's
// -max-bytes at a tenth of the preload — so it stays put when the layout
// changes, or every hit ratio moves with no change in behaviour. What an
// item really costs, measured by TestBytesPerItem with the server's 9-byte
// keys and 64-byte values: 158 live heap bytes, of which 80 are the key and
// value in their size classes and 78 are structure — one 48-byte leaf
// threaded by both trees of the segment, and in each tree a 160-byte
// routing node per ~10.7 leaves (twothree's node layout) — against 182 and
// 102 when the recency-map had a leaf of its own, 240 and 160 with 64-byte
// 2-3 routing nodes, and 431 and 351 when leaves and routing nodes shared
// one 104-byte node type. A server's RSS runs at about 1.3 x memory_bytes
// (uniform_mix: 112 MiB over 84.5 MiB accounted; 1.5 x, 1.8 x and 3.8 x
// before).
const itemOverhead = 96

// evictChunk is how many items one eviction round pops from the coldest
// segment. maybeEvict repeats the round until back under budget — "resident
// bytes within budget" holds at every batch boundary — overshooting by less
// than a chunk.
const evictChunk = 256

// shallowSizer returns a closure measuring one value of type T in
// bytes: string payload length for strings (the dominant case — wsd
// stores string keys and values), shallow struct size otherwise. The
// type test boxes once here; the returned closure is boxing-free
// (unsafe reinterpretation is sound because the type equality was just
// established).
func shallowSizer[T any]() func(T) int {
	var zero T
	if _, ok := any(zero).(string); ok {
		return func(x T) int { return len(*(*string)(unsafe.Pointer(&x))) }
	}
	n := int(unsafe.Sizeof(zero))
	return func(T) int { return n }
}

// memAcct is the per-engine byte accountant. max <= 0 means unbounded
// (accounting still runs, so Bytes/STATS work without a budget). The
// onEvict hook is invoked synchronously on the engine goroutine for
// every item the engine evicts — the shard front-end uses it to queue
// front-cache invalidations and expiry-table cleanup.
type memAcct[K cmp.Ordered, V any] struct {
	kSize   func(K) int
	vSize   func(V) int
	max     int64
	bytes   atomic.Int64
	evicted atomic.Int64
	onEvict func(K, V)
}

func newMemAcct[K cmp.Ordered, V any](max int64) *memAcct[K, V] {
	return &memAcct[K, V]{
		kSize: shallowSizer[K](),
		vSize: shallowSizer[V](),
		max:   max,
	}
}

func (a *memAcct[K, V]) itemBytes(k K, v V) int64 {
	return int64(a.kSize(k)+a.vSize(v)) + itemOverhead
}

// add charges a newly resident item.
func (a *memAcct[K, V]) add(k K, v V) { a.bytes.Add(a.itemBytes(k, v)) }

// sub releases a removed item.
func (a *memAcct[K, V]) sub(k K, v V) { a.bytes.Add(-a.itemBytes(k, v)) }

// swap recharges an item whose value changed in place.
func (a *memAcct[K, V]) swap(old, new V) {
	if d := int64(a.vSize(new) - a.vSize(old)); d != 0 {
		a.bytes.Add(d)
	}
}

// over reports whether a budget is set and currently exceeded.
func (a *memAcct[K, V]) over() bool {
	return a.max > 0 && a.bytes.Load() > a.max
}

// evict releases an evicted item, counts it, and fires the hook.
func (a *memAcct[K, V]) evict(k K, v V) {
	a.sub(k, v)
	a.evicted.Add(1)
	if a.onEvict != nil {
		a.onEvict(k, v)
	}
}
