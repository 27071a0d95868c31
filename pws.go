package pws

import (
	"cmp"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/splay"
)

// Map is the common interface of every map in this package. For Get, the
// returned bool reports presence. For Insert, it reports whether the key
// already existed (with the previous value). For Delete, whether the key
// existed (with the removed value).
type Map[K cmp.Ordered, V any] interface {
	Get(k K) (V, bool)
	Insert(k K, v V) (V, bool)
	Delete(k K) (V, bool)
	Len() int
}

// ConcurrentMap is a Map that must be closed after use to release engine
// resources.
type ConcurrentMap[K cmp.Ordered, V any] interface {
	Map[K, V]
	Close()
}

// Op is one map operation for the batch API (M1.Apply / M2.Apply).
type Op[K cmp.Ordered, V any] = core.Op[K, V]

// Result is the outcome of one operation submitted through the batch API.
type Result[V any] = core.Result[V]

// KV is one key/value pair of a range read, delivered in ascending key
// order. It is also the element type of Sharded.RangePage pages.
type KV[K cmp.Ordered, V any] = core.KV[K, V]

// RangeReq carries an OpRange's bounds, page limit and output buffer; see
// core.RangeReq for the full contract.
type RangeReq[K cmp.Ordered, V any] = core.RangeReq[K, V]

// OpKind identifies a map operation in the batch API.
type OpKind = core.OpKind

// Operation kinds for the batch API.
const (
	// OpGet searches for a key.
	OpGet = core.OpGet
	// OpInsert inserts a key or updates its value.
	OpInsert = core.OpInsert
	// OpDelete removes a key.
	OpDelete = core.OpDelete
	// OpRange is a bounded ordered range read [Op.Key, Op.Range.Hi): a
	// batched operation like the others, served against a consistent
	// snapshot at the end of its cut batch — no quiescence, no global
	// lock. M1 serves it; submitting one to an M2 panics. On a Sharded map
	// use RangePage (ranges broadcast to every shard; routing one through
	// Apply panics).
	OpRange = core.OpRange
	// OpExpire arms Op.Deadline (absolute unix-nanos; 0 clears) as the
	// key's TTL. Only meaningful on a Sharded map, which owns the expiry
	// tables; to the engines it is a recency-touching read. From the
	// deadline on the key reads as absent, and a commit-boundary sweep
	// removes it lazily.
	OpExpire = core.OpExpire
)

// WorkCounter accumulates the structural work performed by a map, in
// pointer-machine node visits. Attach one via Options.Counter to measure
// work bounds; see EXPERIMENTS.md.
type WorkCounter = metrics.Counter

// EngineTelemetry is one engine's depth-telemetry sink: a lock-free
// histogram of the segment index at which each lookup was answered,
// split by source (first slab, filter, final slab, tail) — the live
// witness of the paper's O(log w) working-set property. Attach one via
// Options.Obs; recording is alloc-free (see DESIGN.md "Observability").
type EngineTelemetry = obs.EngineObs

// MapTelemetry bundles a sharded map's telemetry: per-shard
// EngineTelemetry plus the batch-stage histograms. Enable with
// ShardedOptions.Telemetry and retrieve with Sharded.Obs.
type MapTelemetry = obs.MapObs

// Options configures the parallel maps.
type Options struct {
	// P is the paper's processor-count parameter p: batches are cut into
	// bunches of p² operations, and M2 sizes its first slab and filter as
	// functions of p. Defaults to runtime.GOMAXPROCS(0).
	P int
	// Counter, when non-nil, accumulates the map's structural work.
	Counter *WorkCounter
	// Obs, when non-nil, receives the engine's depth telemetry.
	Obs *EngineTelemetry
	// RecordLinearization makes the engine record the operation order it
	// induces, retrievable via the map's DrainLinearization method, so the
	// working-set bound W_L can be computed for experiments.
	RecordLinearization bool
	// MaxBytes, when positive, bounds the map's approximate resident
	// bytes (keys + values + per-item structural overhead): at batch
	// boundaries the engine evicts its least-recent items — the cold end
	// of the working-set hierarchy, exactly the keys the paper's recency
	// structure already keeps deepest — until back under budget. Evicted
	// keys vanish as if deleted. 0 means unbounded (byte accounting
	// still runs, so Bytes reports the footprint either way). M1 only:
	// the paper's M2 has no byte budget, and NewM2 panics on a positive
	// value.
	MaxBytes int64
}

func (o Options) toConfig() core.Config {
	return core.Config{
		P:                   o.P,
		Counter:             o.Counter,
		Obs:                 o.Obs,
		RecordLinearization: o.RecordLinearization,
		MaxBytes:            o.MaxBytes,
	}
}

// M1 is the simple batched parallel working-set map (paper Section 6,
// Theorem 3). Its total work over any concurrent operation sequence is
// O(W_L + e_L log p) for some linearization L. Safe for concurrent use.
//
// It has two ways in. Get, Insert, Delete, Range and Do are the paper's
// implicit batching: concurrent callers' operations are buffered and cut
// into batches by the engine. Apply and ApplyInto take a batch the caller
// already has and run it on the calling goroutine, cut by the same rule,
// with no per-operation frame or wait.
type M1[K cmp.Ordered, V any] struct {
	*core.M1[K, V]
}

// NewM1 creates an M1 map. Close it after use.
func NewM1[K cmp.Ordered, V any](o Options) *M1[K, V] {
	return &M1[K, V]{core.NewM1[K, V](o.toConfig())}
}

// M2 is the pipelined parallel working-set map (paper Section 7,
// Theorem 4): same work bound as M1, with the span of an operation on an
// item with recency r reduced to O((log p)² + log r), independent of the
// map size. It is the paper's structure and nothing more — Get, Insert,
// Delete and Apply; no range reads, TTLs or byte budget (those are M1's
// and Sharded's) — kept as the artifact experiments E6/E7 measure. Safe
// for concurrent use.
type M2[K cmp.Ordered, V any] struct {
	*core.M2[K, V]
}

// NewM2 creates an M2 map. Close it after use (it owns a scheduler pool).
func NewM2[K cmp.Ordered, V any](o Options) *M2[K, V] {
	return &M2[K, V]{core.NewM2[K, V](o.toConfig())}
}

// M0 is the amortized sequential working-set map (paper Section 5,
// Theorem 7). Not safe for concurrent use.
type M0[K cmp.Ordered, V any] struct {
	*core.M0[K, V]
}

// NewM0 creates an M0 map. cnt may be nil.
func NewM0[K cmp.Ordered, V any](cnt *WorkCounter) *M0[K, V] {
	return &M0[K, V]{core.NewM0[K, V](cnt)}
}

// Iacono is Iacono's sequential working-set structure (reference [29] of
// the paper): M0's segments under the move-to-front rule. Each visits its
// items in ascending key order and stops when the callback returns false.
// Not safe for concurrent use.
type Iacono[K cmp.Ordered, V any] struct {
	*core.Iacono[K, V]
}

// NewIacono creates an Iacono working-set structure. cnt may be nil.
func NewIacono[K cmp.Ordered, V any](cnt *WorkCounter) *Iacono[K, V] {
	return &Iacono[K, V]{core.NewIacono[K, V](cnt)}
}

// Splay is a top-down splay tree (amortized self-adjusting baseline). Not
// safe for concurrent use.
type Splay[K cmp.Ordered, V any] struct {
	*splay.Tree[K, V]
}

// NewSplay creates a splay tree. cnt may be nil.
func NewSplay[K cmp.Ordered, V any](cnt *WorkCounter) *Splay[K, V] {
	return &Splay[K, V]{splay.New[K, V](cnt)}
}

// BatchedTree is the non-adaptive batched parallel 2-3 tree map — the
// baseline the paper compares against analytically: M1's implicit
// batching in front of one balanced tree, so Θ(log n) work per operation
// whatever the recency. Safe for concurrent use.
type BatchedTree[K cmp.Ordered, V any] struct {
	*core.BatchedTree[K, V]
}

// NewBatchedTree creates a batched 2-3 tree map with p buffer slots for
// pending operations (p < 1 defaults to runtime.GOMAXPROCS(0), and a p
// below 2 becomes 2, as for M1 and M2). cnt may be nil. Close it after use.
func NewBatchedTree[K cmp.Ordered, V any](p int, cnt *WorkCounter) *BatchedTree[K, V] {
	return &BatchedTree[K, V]{core.NewBatchedTree[K, V](p, cnt)}
}

// Locked wraps any sequential Map behind a global mutex, producing a
// concurrent (but serialized) map for baseline comparisons.
func Locked[K cmp.Ordered, V any](m Map[K, V]) Map[K, V] {
	return baseline.NewLocked[K, V](m)
}

// ShardedOptions configures NewSharded. Each shard's engine is an M1.
type ShardedOptions struct {
	// P is each shard engine's processor-count parameter p (see
	// Options.P). Defaults to max(2, GOMAXPROCS/Shards): each shard gets
	// a slice of the machine, not the whole machine.
	P int
	// Counter, when non-nil, accumulates the structural work of every
	// shard's engine.
	Counter *WorkCounter
	// Shards is the shard count. Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// Telemetry equips the map with a MapTelemetry bundle (one depth
	// sink per shard plus batch-stage histograms), retrievable via
	// Sharded.Obs. Recording is alloc-free and costs a few atomic adds
	// per resolved group.
	Telemetry bool
	// FrontCache, when positive, puts a lock-free hot-key read front of
	// that many entries ahead of each shard (internal/frontcache): Get
	// answers recently-read keys in nanoseconds without entering the
	// batch pipeline, and every write drops its key from the front as it
	// resolves inside the engine — before any result of its batch is
	// released — so a cached read never shadows a newer value. 0
	// disables the front. Hits appear in the depth telemetry as source
	// "front" at depth 0.
	FrontCache int
	// MaxBytes, when positive, is the map's global byte budget: split
	// evenly across shards, enforced at batch boundaries by evicting
	// each shard's least-recent items (see Options.MaxBytes). 0 means
	// unbounded.
	MaxBytes int64
	// Clock supplies the TTL clock as absolute unix-nanos (tests inject
	// a fake). Defaults to time.Now().UnixNano.
	Clock func() int64
}

// MemStats is a Sharded map's bounded-memory health snapshot,
// returned by Sharded.Mem.
type MemStats = shard.MemStats

// Sharded is a hash-sharded concurrent ordered map: operations are routed
// by key hash to one of S independent per-shard working-set maps, so
// cross-shard operations never serialize on one segment structure while
// each shard still batches, combines duplicates, and adapts to the
// temporal locality of the keys it owns. Safe for concurrent use.
//
// Beyond the Map interface it offers Apply (sharded bulk-load), RangePage
// and Range (live cursor-paged ordered reads: one bounded batched range
// op broadcast to every shard and k-way merged — no quiescence, no
// stop-the-world), Items (quiescent snapshot), Shards, and Batches.
type Sharded[K cmp.Ordered, V any] struct {
	*shard.Map[K, V]
}

// NewSharded creates a sharded map. Close it after use.
func NewSharded[K cmp.Ordered, V any](o ShardedOptions) *Sharded[K, V] {
	return &Sharded[K, V]{shard.New[K, V](shard.Config{
		Shards:     o.Shards,
		P:          o.P,
		Counter:    o.Counter,
		Telemetry:  o.Telemetry,
		FrontCache: o.FrontCache,
		MaxBytes:   o.MaxBytes,
		Clock:      o.Clock,
	})}
}
