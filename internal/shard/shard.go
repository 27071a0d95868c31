// Package shard implements a hash-sharded front-end over the parallel
// working-set maps: every operation is routed by key hash to one of S
// independent per-shard engines (each a core.M1), so the per-shard
// implicit batches never serialize on one segment structure.
//
// Sharding composes with, rather than replaces, the paper's batching: each
// shard still combines duplicate operations and adapts to the temporal
// locality of the keys it owns, so the working-set bound holds per shard
// while cross-shard operations proceed in parallel. The working-set bound
// is preserved up to the hash split: an access with recency r in the global
// sequence has recency at most r in its shard's subsequence, so per-shard
// work is still O(1 + log r) per access.
//
// Ordered queries see the union of the shards. Range is a live, batched
// query: keys hash across shards, so a range [lo, hi) cannot be narrowed
// to a shard subset — instead one bounded OpRange is broadcast to every
// shard (riding each engine's normal cut batches, no quiescence and no
// map-wide lock), each engine leaves out its expired keys where the range
// linearizes, and the per-shard pages are merged by core.MergePage and
// paginated by cursor (RangePage). Items remains a quiescent whole-map
// snapshot merged the same way.
package shard

import (
	"cmp"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/frontcache"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/obs"
)

// Config configures a sharded map.
type Config struct {
	// Shards is the shard count S. Defaults to runtime.GOMAXPROCS(0).
	Shards int
	// P is each shard engine's processor-count parameter (core.Config.P).
	// Defaults to max(2, GOMAXPROCS/S) so the shards divide the machine
	// instead of each sizing its batches for the whole machine.
	P int
	// Counter, when non-nil, accumulates every shard engine's structural
	// work.
	Counter *metrics.Counter
	// Telemetry, when set, equips the map with an obs.MapObs: one depth
	// sink per shard plus the fanout/apply stage histograms, retrievable
	// via Map.Obs.
	Telemetry bool
	// FrontCache, when positive, equips each shard with a lock-free
	// hot-key read front of that many entries (internal/frontcache):
	// Get consults it before the engine. The front is filled and
	// dropped only inside the engine, at the key's serialization point
	// (core.KeyHooks): a GET that finds its key resident fills it (Read),
	// and every write drops it (Wrote), before any result of the batch
	// is released. 0 disables the front.
	FrontCache int
	// MaxBytes, when positive, bounds the map's approximate resident
	// bytes (keys + values + per-item structural overhead): the budget
	// is split evenly across shards and each engine evicts its
	// least-recent items — the cold end of its working-set hierarchy —
	// at batch boundaries while over its share. Evicted keys vanish as
	// if deleted. 0 means unbounded (byte accounting still runs).
	MaxBytes int64
	// Clock supplies the TTL clock as absolute unix-nanos (tests inject
	// a fake). Defaults to time.Now().UnixNano.
	Clock func() int64
}

// Map is the hash-sharded concurrent ordered map. All methods are safe for
// concurrent use; Close drains in-flight operations before releasing the
// shards.
type Map[K cmp.Ordered, V any] struct {
	seed   maphash.Seed
	shards []*core.M1[K, V]

	// fronts are the optional per-shard hot-key read caches (nil
	// without Config.FrontCache). One maphash value routes both the
	// shard and the cache bucket.
	fronts []*frontcache.Cache[K, V]

	// exp are the per-shard TTL sidecars (expiry.go), always present;
	// a shard with no armed TTLs costs one atomic load to skip.
	exp      []*expTable[K]
	clock    func() int64
	maxBytes int64
	expired  atomic.Int64 // incarnations retired by TTL (lifetime)

	// mobs is the map's telemetry bundle (nil without Config.Telemetry);
	// stages caches mobs.Stages() so the hot path pays one nil check.
	mobs   *obs.MapObs
	stages *obs.StageSet

	// slots and wake feed fanout's persistent per-shard workers (a
	// goroutine spawned per call would regrow its stack on every cut;
	// DESIGN.md "Two entry points, one engine").
	slots    []atomic.Pointer[task[K, V]]
	wake     []chan struct{}
	scratch  sync.Pool // *applyScratch[K, V]
	scratchR sync.Pool // *rangeScratch[K, V]
	// byCaller and byWorker count the sub-batches fanout applied on the
	// calling goroutine and on a shard worker (FanoutStats).
	byCaller, byWorker atomic.Int64

	pending locks.WaitCounter
	closed  atomic.Bool
	closing sync.Once
}

// task is one shard's sub-batch in a fanout; whichever of the caller and
// the shard's worker claims it applies it and ticks wg, exactly once.
type task[K cmp.Ordered, V any] struct {
	ops []core.Op[K, V]
	res []core.Result[V]
	wg  *sync.WaitGroup
}

func (t *task[K, V]) run(e *core.M1[K, V]) {
	e.ApplyInto(t.ops, t.res)
	t.wg.Done()
}

// applyScratch is the pooled per-Apply working memory: the two-pass
// counting-sort split writes into these reused slices, so routing a batch
// allocates nothing at steady state. Pooled (not per-Map) because any
// number of connections may Apply concurrently.
type applyScratch[K cmp.Ordered, V any] struct {
	shardOf []int32          // shard index per op
	counts  []int            // per-shard op count, then offset cursor
	starts  []int            // per-shard sub-batch start offset
	pos     []int            // op i's slot in the shard-ordered layout
	subOps  []core.Op[K, V]  // ops regrouped contiguously by shard
	subRes  []core.Result[V] // results in the same layout
	tasks   []task[K, V]     // per-shard windows of subOps/subRes
	wg      sync.WaitGroup
}

// New creates a sharded map.
func New[K cmp.Ordered, V any](cfg Config) *Map[K, V] {
	s := cfg.Shards
	if s < 1 {
		s = runtime.GOMAXPROCS(0)
	}
	sub := core.Config{P: cfg.P, Counter: cfg.Counter}
	if sub.P < 1 {
		sub.P = max(runtime.GOMAXPROCS(0)/s, 2)
	}
	if cfg.MaxBytes > 0 {
		sub.MaxBytes = max(cfg.MaxBytes/int64(s), 1)
	}
	m := &Map[K, V]{
		seed:     maphash.MakeSeed(),
		shards:   make([]*core.M1[K, V], s),
		exp:      make([]*expTable[K], s),
		clock:    cfg.Clock,
		maxBytes: cfg.MaxBytes,
	}
	if m.clock == nil {
		m.clock = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.Telemetry {
		m.mobs = obs.NewMapObs(s)
		m.stages = m.mobs.Stages()
	}
	if cfg.FrontCache > 0 {
		m.fronts = make([]*frontcache.Cache[K, V], s)
		for i := range m.fronts {
			m.fronts[i] = frontcache.New[K, V](cfg.FrontCache)
		}
	}
	for i := range m.shards {
		m.exp[i] = newExpTable[K]()
		if m.mobs != nil {
			sub.Obs = m.mobs.Engine(i)
		}
		m.shards[i] = core.NewM1[K, V](sub)
		// Every sidecar transition for a key — its cached front copy and
		// its TTL — happens inside the engine, at the key's serialization
		// point, through these hooks and nowhere else: a GET finding the
		// key resident (Read, the front's one fill), a write resolving
		// (Wrote), an OpExpire resolving (Arm), an engine observing a
		// resident item past its deadline (Ghost), and the engine evicting
		// a key under its byte budget (SetOnEvict). Dead only reads the
		// table, for the engine's ordered reads. Each runs before the
		// batch that caused it releases any result, so fills and drops of
		// a key are ordered like the ops that cause them: the front can
		// never outlive the engine's copy and no reader can observe a new
		// value and then a cached old one.
		//
		// Every dropping hook drops the key's front slot FIRST and only
		// then touches the expiry table. FrontGet consults the table
		// before probing the front, so this order closes the retirement
		// race: a reader that misses the entry is guaranteed to also miss
		// the slot. (frontDrop is idempotent; the hooks own the key, so
		// the check-then-remove pairs below cannot interleave with
		// another mutation of it.)
		t := m.exp[i]
		m.shards[i].SetOnEvict(func(k K, _ V) {
			m.frontDrop(k)
			t.clear(k)
		})
		m.shards[i].SetKeyHooks(&core.KeyHooks[K, V]{
			Ghost: func(k K) bool {
				// Armed-count gate first: with no TTLs in the shard
				// the per-observation cost is one atomic load, no
				// clock read.
				if t.n.Load() == 0 {
					return false
				}
				now := m.now()
				if !t.expired(k, now) {
					return false
				}
				m.frontDrop(k)
				if t.ghost(k, now) {
					m.expired.Add(1)
					return true
				}
				return false
			},
			Wrote: func(k K) {
				m.frontDrop(k)
				t.clear(k)
			},
			Read: m.frontStage,
			Arm: func(k K, deadline int64) bool {
				if deadline != 0 && deadline <= m.now() {
					// Already past: the engine deletes the key in the
					// same replay instead of arming a dead entry. Drop
					// any deadline a prior EXPIRE armed — the key is
					// about to vanish, and a leftover entry would be
					// counted as an unswept ghost forever.
					m.frontDrop(k)
					t.clear(k)
					m.expired.Add(1)
					return true
				}
				t.arm(k, deadline)
				return false
			},
			Dead: func() func(K) bool {
				if t.n.Load() == 0 {
					return nil
				}
				now := m.now()
				return func(k K) bool { return t.expired(k, now) }
			},
		})
	}
	m.slots = make([]atomic.Pointer[task[K, V]], s)
	m.wake = make([]chan struct{}, s)
	for i := range m.wake {
		wake := make(chan struct{}, 1)
		m.wake[i] = wake
		go func() {
			for range wake {
				if t := m.slots[i].Swap(nil); t != nil {
					m.byWorker.Add(1)
					t.run(m.shards[i])
				}
			}
		}()
	}
	return m
}

// fanout applies each non-empty tasks[s] on shard s while work (if any)
// runs, and returns when all of it is done. With no work, the caller
// keeps the first non-empty task for itself and applies it once the rest
// are posted; with work (the durable fsync), every task is posted. A
// posted task sits in its shard's slot and that worker is woken; after
// its own task or work, the caller takes back and applies here each
// task no worker has swapped out, so wg.Wait waits only for tasks a
// worker started. A slot busy with another caller's task means its
// worker is behind, so the task is applied here at once. Without work,
// a batch that touches one shard thus wakes no worker.
func (m *Map[K, V]) fanout(tasks []task[K, V], wg *sync.WaitGroup, work func()) {
	own, byCaller := -1, int64(0)
	for s := range tasks {
		t := &tasks[s]
		if len(t.ops) == 0 {
			continue
		}
		if work == nil && own < 0 {
			own = s
			continue
		}
		t.wg = wg
		wg.Add(1)
		if !m.slots[s].CompareAndSwap(nil, t) {
			t.run(m.shards[s])
			byCaller++
			continue
		}
		select {
		case m.wake[s] <- struct{}{}:
		default: // a wake is already pending; the worker swaps this task out too
		}
	}
	if own >= 0 {
		m.shards[own].ApplyInto(tasks[own].ops, tasks[own].res)
		byCaller++
	} else if work != nil {
		work()
	}
	for s := range tasks {
		if t := &tasks[s]; m.slots[s].CompareAndSwap(t, nil) {
			t.run(m.shards[s])
			byCaller++
		}
	}
	wg.Wait()
	if byCaller > 0 {
		m.byCaller.Add(byCaller)
	}
}

// FanoutStats reports how many shard sub-batches were applied by the
// goroutine that submitted them (caller) and by a shard worker (worker).
func (m *Map[K, V]) FanoutStats() (caller, worker int64) {
	return m.byCaller.Load(), m.byWorker.Load()
}

// Obs returns the map's telemetry bundle (nil unless Config.Telemetry
// was set; the nil is safe to use — every obs method no-ops on it).
func (m *Map[K, V]) Obs() *obs.MapObs { return m.mobs }

// shardOf returns the shard index owning key k.
func (m *Map[K, V]) shardOf(k K) int {
	return int(maphash.Comparable(m.seed, k) % uint64(len(m.shards)))
}

// FrontEnabled reports whether the map carries a hot-key read front.
func (m *Map[K, V]) FrontEnabled() bool { return m.fronts != nil }

// FrontGet consults the hot-key front for k without entering the batch
// pipeline. A hit is recorded as a depth-0 lookup with source "front"
// in the shard's depth telemetry (a front answer is the recency
// hierarchy's cheapest layer). Zero allocations; always a miss when the
// front is disabled.
func (m *Map[K, V]) FrontGet(k K) (V, bool) {
	if m.fronts == nil {
		var zero V
		return zero, false
	}
	h := maphash.Comparable(m.seed, k)
	s := h % uint64(len(m.shards))
	// Deadline consult BEFORE the front probe. Paired with the writer
	// order in the TTL hooks and eviction callback — drop the front
	// slot, then retire the table entry — this makes serving a
	// past-deadline value impossible in every interleaving: if this
	// consult misses the (removed) entry, the removal already dropped
	// the front slot, so the probe below misses too. The reverse read
	// order (probe, then consult) had a window where a retirement
	// between the two steps served the dead value.
	if m.exp[s].n.Load() > 0 && m.exp[s].expired(k, m.now()) {
		// Past its deadline but not yet retired: expired is a miss even
		// before the sweep. Drop the slot so later probes miss without
		// the deadline check.
		m.fronts[s].Invalidate(h, k)
		var zero V
		return zero, false
	}
	v, ok := m.fronts[s].Get(h, k)
	if ok {
		m.mobs.Engine(int(s)).RecordLookup(obs.SrcFront, 0, 1)
	}
	return v, ok
}

// FrontStats returns the front's counters merged across shards (zero
// when disabled).
func (m *Map[K, V]) FrontStats() frontcache.Stats {
	var st frontcache.Stats
	for _, f := range m.fronts {
		st = st.Merge(f.Stats())
	}
	return st
}

// now reads the TTL clock (absolute unix-nanos).
func (m *Map[K, V]) now() int64 { return m.clock() }

// Now reads the map's TTL clock (absolute unix-nanos; Config.Clock or
// the wall clock). Deadline producers — the server turning EXPIRE
// seconds into absolute deadlines — must derive them from this clock so
// injected test clocks stay coherent.
func (m *Map[K, V]) Now() int64 { return m.now() }

// ttlAny reports whether any shard has armed TTLs (S atomic loads).
func (m *Map[K, V]) ttlAny() bool {
	for _, t := range m.exp {
		if t.n.Load() > 0 {
			return true
		}
	}
	return false
}

// frontDrop is the single front invalidation path. Its only callers are
// the engine hooks installed in New — a write resolving, a ghost
// retiring, an already-past EXPIRE, a budget eviction — so every removal
// or overwrite drops the key's front slot at the key's engine
// serialization point, and the front can never keep serving a value the
// engines no longer hold. A write drops rather than refreshes: a
// dropped hot key fills again on its next engine read.
func (m *Map[K, V]) frontDrop(k K) {
	if m.fronts == nil {
		return
	}
	h := maphash.Comparable(m.seed, k)
	m.fronts[h%uint64(len(m.shards))].Invalidate(h, k)
}

// frontStage is the engine's Read hook, the first step of the single
// front population path: a GET found k resident with value v (k is the
// engine's own copy, so the front may retain it). It runs where the
// shard's writes drop k, so a staged value stays the engine's until
// frontPublish makes it readable.
func (m *Map[K, V]) frontStage(k K, v V) {
	if m.fronts == nil {
		return
	}
	h := maphash.Comparable(m.seed, k)
	m.fronts[h%uint64(len(m.shards))].Stage(h, k, v)
}

// frontPublish is the fill's second step, run for each GET a batch
// answered present once the batch's work (a WAL sync) has returned: the
// front must not serve a value before the write that made it is durable.
func (m *Map[K, V]) frontPublish(k K) {
	if m.fronts == nil {
		return
	}
	h := maphash.Comparable(m.seed, k)
	m.fronts[h%uint64(len(m.shards))].Publish(h, k)
}

// sweep resolves due TTLs lazily: for each shard with deadlines at or
// before now, collect up to sweepMax due keys (dueKeys — the table
// entries stay in place) and submit them as one plain engine Get
// batch. The gets carry no payload; their whole point is to make the
// engine observe each key, which fires the ghost consult at the key's
// serialization point and removes the dead incarnation through the
// engine's normal delete machinery (a ghosted group resolves to net
// absent, so the get neither revives recency nor returns a value). A
// write racing the sweep serializes with the observation either way:
// if it resolves first it clears the deadline and the get degrades to
// a harmless read of the fresh value. Runs at every commit boundary —
// point ops end in one too, so a library workload that never batches
// still reclaims expired keys; the common no-TTL and
// nothing-due cases pay S atomic loads, no clock read and no
// allocation, keeping the due-key work itself off the per-op hot path.
// Concurrent sweeps are safe: dueKeys hands out disjoint key sets and
// ghost retirement is exactly-once.
func (m *Map[K, V]) sweep() {
	var now int64
	for s, t := range m.exp {
		nd := t.nextDue.Load()
		if nd == 0 {
			continue
		}
		if now == 0 {
			now = m.now()
		}
		if nd > now {
			continue
		}
		keys := t.dueKeys(now, sweepMax, nil)
		if len(keys) == 0 {
			continue
		}
		ops := make([]core.Op[K, V], len(keys))
		for i, k := range keys {
			ops[i] = core.Op[K, V]{Kind: core.OpGet, Key: k}
		}
		m.shards[s].ApplyInto(ops, make([]core.Result[V], len(keys)))
	}
}

// enter registers an in-flight operation, panicking if the map is closed.
// The pending increment is published before the closed check, so an
// operation that passes the check is always seen by Close's drain wait.
func (m *Map[K, V]) enter() {
	m.pending.Add()
	if m.closed.Load() {
		m.pending.Done()
		panic("shard: Map used after Close")
	}
}

// applyOne runs one point operation through its shard's M1.Do — the
// paper's implicit batching, so concurrent library callers still share
// cut batches — and then the same commit boundary as a batch.
func (m *Map[K, V]) applyOne(op core.Op[K, V]) core.Result[V] {
	m.enter()
	defer m.pending.Done()
	r := m.shards[m.shardOf(op.Key)].Do(op)
	if op.Kind == core.OpGet && r.OK {
		m.frontPublish(op.Key)
	}
	m.sweep()
	return r
}

// Get searches for key k. With the front cache enabled the hot path is
// a lock-free front probe; a miss falls through to the engine, whose
// read fills the front when it finds k (frontStage, frontPublish).
func (m *Map[K, V]) Get(k K) (V, bool) {
	if v, ok := m.FrontGet(k); ok {
		return v, true
	}
	r := m.applyOne(core.Op[K, V]{Kind: core.OpGet, Key: k})
	return r.Val, r.OK
}

// Insert adds k with value v, or updates it if present; it returns the
// previous value and whether the key existed.
func (m *Map[K, V]) Insert(k K, v V) (V, bool) {
	r := m.applyOne(core.Op[K, V]{Kind: core.OpInsert, Key: k, Val: v})
	return r.Val, r.OK
}

// Delete removes k; it returns the removed value and whether the key
// existed.
func (m *Map[K, V]) Delete(k K) (V, bool) {
	r := m.applyOne(core.Op[K, V]{Kind: core.OpDelete, Key: k})
	return r.Val, r.OK
}

// Expire arms an absolute unix-nano deadline on k, riding the batch
// pipeline so it linearizes like any other op: from the deadline on the
// key reads as absent, and a later commit-boundary sweep removes it.
// deadline 0 clears an armed TTL. Returns whether k was present (and
// not already expired) — Redis EXPIRE semantics.
func (m *Map[K, V]) Expire(k K, deadline int64) bool {
	return m.applyOne(core.Op[K, V]{Kind: core.OpExpire, Key: k, Deadline: deadline}).OK
}

// Apply submits a whole batch of operations at once and waits for all of
// their results, returned in input order. The batch is split by shard
// (preserving per-shard input order, so per-key semantics match sequential
// submission) and the per-shard sub-batches run concurrently — the sharded
// bulk-load path.
func (m *Map[K, V]) Apply(ops []core.Op[K, V]) []core.Result[V] {
	return m.ApplyInto(ops, nil)
}

// grow returns s[:n], reallocating when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// ApplyInto is Apply collecting into dst (grown as needed and returned),
// so a caller issuing batches in a loop — the server's pipelined
// connections — reuses one result buffer. It is the single-batch case of
// ApplyScattered, which holds the one copy of the split algorithm.
func (m *Map[K, V]) ApplyInto(ops []core.Op[K, V], dst []core.Result[V]) []core.Result[V] {
	dst = grow(dst, len(ops))
	var (
		batches = [1][]core.Op[K, V]{ops}
		dsts    = [1][]core.Result[V]{dst}
	)
	m.ApplyScattered(batches[:], dsts[:], nil)
	return dst
}

// rangeScratch is the pooled per-RangePage working memory: one op, one
// request frame, one result slot and one merge run per shard. The request
// frames keep their Out capacity across pages, so a paging caller's steady
// state allocates nothing (the allocation discipline of DESIGN.md). Pooled
// because any number of connections may page concurrently.
type rangeScratch[K cmp.Ordered, V any] struct {
	ops   []core.Op[K, V]
	reqs  []core.RangeReq[K, V]
	res   []core.Result[V]
	runs  [][]Entry[K, V]
	tasks []task[K, V]
	wg    sync.WaitGroup
}

// RangePage reads one cursor page of the ordered range [lo, hi): the
// first limit live pairs in ascending key order, appended to dst (grown
// as needed and returned). With xlo set the lower bound is exclusive —
// pass the last key of the previous page to resume after it. more reports
// whether further matching items may remain (the cue to issue the next
// page; an occasional false positive costs one empty page, never a missed
// item), and a page that reports more holds limit pairs. limit <= 0 means
// no bound (single unbounded page).
//
// The page is served by broadcasting one bounded OpRange to every shard
// — hash sharding spreads any key range across all of them — and merging
// the per-shard pages with core.MergePage. Each shard's range is an
// ordinary batched operation riding its engine's cut batches, so
// RangePage runs concurrently with any other operations: no quiescence,
// no map-wide lock, no stalled writers. Each per-shard page is a
// consistent snapshot of its shard (the op linearizes at the end of a cut
// batch, and the engine leaves out expired-but-unswept keys there, through
// the Dead hook); the merged page composes the per-shard snapshots, which
// is linearizable per returned pair, and successive cursor pages likewise
// each read live state. Taking limit pairs from every shard keeps the
// merge exact: each of the globally smallest limit keys is among its own
// shard's smallest limit.
func (m *Map[K, V]) RangePage(lo K, xlo bool, hi K, limit int, dst []Entry[K, V]) (page []Entry[K, V], more bool) {
	m.enter()
	defer m.pending.Done()

	sc, _ := m.scratchR.Get().(*rangeScratch[K, V])
	if sc == nil {
		sc = &rangeScratch[K, V]{}
	}
	defer m.scratchR.Put(sc)
	s := len(m.shards)
	sc.ops = grow(sc.ops, s)
	sc.reqs = grow(sc.reqs, s)
	sc.res = grow(sc.res, s)
	sc.runs = grow(sc.runs, s)
	sc.tasks = grow(sc.tasks, s)
	for i := range m.shards {
		req := &sc.reqs[i]
		req.Hi, req.Limit, req.XLo = hi, limit, xlo
		req.Out = req.Out[:0]
		sc.ops[i] = core.Op[K, V]{Kind: core.OpRange, Key: lo, Range: req}
		sc.tasks[i] = task[K, V]{ops: sc.ops[i : i+1], res: sc.res[i : i+1]}
	}
	m.fanout(sc.tasks, &sc.wg, nil)

	for i := range sc.runs {
		sc.runs[i] = sc.reqs[i].Out
		more = more || sc.res[i].OK
	}
	dst, merged := core.MergePage(sc.runs, limit, dst)
	// Scrub the pooled frames before they go back: keep Out's capacity,
	// drop every key/value reference — including the lo/hi bounds in the
	// op and request, which may alias a server connection's read arena
	// and must not stay reachable from the pool.
	clear(sc.runs)
	for i := range m.shards {
		out := sc.reqs[i].Out
		clear(out)
		sc.reqs[i] = core.RangeReq[K, V]{Out: out[:0]}
		sc.ops[i] = core.Op[K, V]{}
	}
	return dst, more || merged
}

// ApplyScattered applies the concatenation of batches as one combined
// batch — exactly as if they had been appended into a single ApplyInto
// call — writing each batch's results into the aligned dsts slice, which
// must satisfy len(dsts) == len(batches) and len(dsts[b]) ==
// len(batches[b]). The ops are never concatenated: the counting-sort
// split walks the batches in place into per-shard sub-batches, and the
// final scatter delivers straight into each submitter's slice. This is
// the map half of cross-connection group commit (internal/coalesce): the
// per-shard sub-batches still combine duplicates across submitters,
// because each shard engine sees one batch.
//
// A non-nil work (the durable server's WAL sync) runs once on the caller
// while the shards apply. Apply and ApplyInto are the one-batch case
// with no work; Get/Insert/Delete/Expire take the engines' point-op
// path (applyOne), which ends in the same commit boundary. The whole
// boundary, in order:
//
//  1. collect — the engines apply every op. As each write, expire or
//     ghost observation resolves at its key's serialization point the
//     core.KeyHooks drop the key's front slot and settle its TTL, and
//     a GET that finds its key resident stages a front fill; budget
//     eviction at the engine's batch end drops through SetOnEvict. A
//     durable server's applier wrote the batch's WAL frame before
//     collect and passed its sync as work, which runs while the shards
//     apply and stops the process if it fails.
//  2. publish — once the work has returned, collect's scatter (applyOne
//     for a point op) publishes the fills of present GETs. Every result
//     sits in its submitter's slice, the batch is durable, and no
//     sidecar holds state the engines contradict.
//  3. sweep — lazily retire due TTLs (reclamation only; an expired key
//     already reads as absent).
//  4. release — the server's applier closes the WAL's cut, and the
//     coalescer releases the batch's waiters; replies are written.
//
// Nothing in the boundary depends on which ops the batch carried.
func (m *Map[K, V]) ApplyScattered(batches [][]core.Op[K, V], dsts [][]core.Result[V], work func()) {
	m.enter()
	defer m.pending.Done()
	total := 0
	for _, ops := range batches {
		total += len(ops)
	}
	if total == 0 {
		if work != nil {
			work()
		}
		return
	}
	m.collect(batches, dsts, total, work)
	m.sweep()
}

// collect is ApplyScattered's split → apply → scatter: when it returns
// every op is applied, its result delivered, and work done.
//
// The split is a two-pass counting sort into pooled scratch: pass one
// routes every op and counts per shard, pass two lays the ops out
// contiguously by shard in subOps. One fanout applies each shard's
// window while work runs; results are scattered from subRes.
func (m *Map[K, V]) collect(batches [][]core.Op[K, V], dsts [][]core.Result[V], total int, work func()) {
	// Stage timing is per batch (two clock reads when enabled), recorded
	// as fanout (the split) and apply (the fanout call).
	var t0 int64
	if m.stages != nil {
		t0 = obs.Now()
	}
	sc, _ := m.scratch.Get().(*applyScratch[K, V])
	if sc == nil {
		sc = &applyScratch[K, V]{}
	}
	defer func() {
		clear(sc.subOps)
		clear(sc.subRes)
		clear(sc.tasks)
		m.scratch.Put(sc)
	}()
	sc.shardOf = grow(sc.shardOf, total)
	sc.counts = grow(sc.counts, len(m.shards))
	clear(sc.counts)
	i := 0
	for _, ops := range batches {
		for _, op := range ops {
			if op.Kind == core.OpRange {
				// A range spans every shard; routing it by its lo-key hash
				// would silently read one shard. RangePage is the sharded
				// range entry point.
				panic("shard: OpRange submitted through Apply; use RangePage")
			}
			s := m.shardOf(op.Key)
			sc.shardOf[i] = int32(s)
			sc.counts[s]++
			i++
		}
	}

	// Pass two: contiguous by-shard layout via prefix offsets, walking the
	// batches in submission order so per-shard sub-batch order matches the
	// order a concatenated ApplyInto would have produced.
	sc.starts = grow(sc.starts, len(m.shards))
	off := 0
	for s, c := range sc.counts {
		sc.starts[s] = off
		off += c
	}
	sc.subOps = grow(sc.subOps, total)
	sc.subRes = grow(sc.subRes, total)
	sc.pos = grow(sc.pos, total)
	cursor := sc.counts // reuse as per-shard fill cursor; ends as sub-batch ends
	copy(cursor, sc.starts)
	i = 0
	for _, ops := range batches {
		for _, op := range ops {
			p := cursor[sc.shardOf[i]]
			cursor[sc.shardOf[i]]++
			sc.subOps[p] = op
			sc.pos[i] = p
			i++
		}
	}

	tApply := m.markFanout(t0)
	sc.tasks = grow(sc.tasks, len(m.shards))
	for s, lo := range sc.starts {
		sc.tasks[s] = task[K, V]{ops: sc.subOps[lo:cursor[s]], res: sc.subRes[lo:cursor[s]]}
	}
	m.fanout(sc.tasks, &sc.wg, work)
	m.stages.RecordSince(obs.StageApply, tApply)

	// Scatter results to each submitter's slice; work is done, so present
	// GETs publish their fills.
	i = 0
	for b, ops := range batches {
		dst := dsts[b]
		for j := range ops {
			dst[j] = sc.subRes[sc.pos[i]]
			i++
			if ops[j].Kind == core.OpGet && dst[j].OK {
				m.frontPublish(ops[j].Key)
			}
		}
	}
}

// markFanout closes the fanout stage opened at t0 and opens the apply
// stage, returning its start timestamp (0 when telemetry is off).
func (m *Map[K, V]) markFanout(t0 int64) int64 {
	if m.stages == nil {
		return 0
	}
	now := obs.Now()
	m.stages.Record(obs.StageFanout, now-t0)
	return now
}

// Len returns the current number of live items (racy snapshot, summed
// across shards). Expired-but-unswept keys are not counted: engines
// still hold them until the next sweep, so their count is subtracted
// from the engine totals, and Len converges to the exact live count at
// the batch boundary that sweeps them.
func (m *Map[K, V]) Len() int {
	n := 0
	for _, s := range m.shards {
		n += s.Len()
	}
	if m.ttlAny() {
		now := m.now()
		for _, t := range m.exp {
			n -= t.expiredCount(now)
		}
		if n < 0 {
			n = 0
		}
	}
	return n
}

// MemStats is the bounded-memory health snapshot of a sharded map.
type MemStats struct {
	MaxBytes int64 // configured global budget (0 = unbounded)
	Bytes    int64 // approximate resident bytes, summed across shards
	Evicted  int64 // items evicted by the byte budget (lifetime)
	Expired  int64 // items removed by TTL sweeps (lifetime)
	TTLs     int64 // currently armed TTLs
}

// Mem returns the bounded-memory health snapshot (racy, like Len).
func (m *Map[K, V]) Mem() MemStats {
	st := MemStats{MaxBytes: m.maxBytes, Expired: m.expired.Load()}
	for _, s := range m.shards {
		st.Bytes += s.Bytes()
		st.Evicted += s.Evicted()
	}
	for _, t := range m.exp {
		st.TTLs += t.n.Load()
	}
	return st
}

// ExpiryEntries visits every armed (key, deadline) pair across shards —
// the checkpoint stream's expiry section. Each shard's entries are
// visited under that shard's table lock; arms and clears racing the
// walk may or may not be seen (the WAL tail replays them at recovery).
func (m *Map[K, V]) ExpiryEntries(visit func(k K, deadline int64)) {
	for _, t := range m.exp {
		t.entries(visit)
	}
}

// Shards returns the shard count.
func (m *Map[K, V]) Shards() int { return len(m.shards) }

// Batches returns the total number of cut batches processed across all
// shards (diagnostics).
func (m *Map[K, V]) Batches() int64 {
	var n int64
	for _, s := range m.shards {
		n += s.Batches()
	}
	return n
}

// Quiesce blocks until every shard's engine has drained all in-flight
// work, including the structural tail work that continues after results
// are delivered. Only meaningful once clients have stopped submitting
// operations; Items and CheckInvariants are safe after Quiesce returns.
// (Range/RangePage no longer require quiescence: they are live batched
// queries.)
func (m *Map[K, V]) Quiesce() {
	for _, s := range m.shards {
		s.Quiesce()
	}
}

// Close marks the map closed, waits for in-flight operations to drain,
// closes every shard and stops the per-shard workers. Close is
// idempotent: concurrent and repeated calls all block until the first one
// finishes.
func (m *Map[K, V]) Close() {
	m.closing.Do(func() {
		m.closed.Store(true)
		m.pending.Wait()
		for _, s := range m.shards {
			s.Close() // every operation has drained: nothing to wait for
		}
		for _, ch := range m.wake {
			close(ch)
		}
	})
}

// CheckInvariants verifies every shard's segment structure. Only valid
// while the map is quiescent (test hook).
func (m *Map[K, V]) CheckInvariants() error {
	for _, s := range m.shards {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	return nil
}

// Entry is one key/value pair of an ordered query (alias of core.KV, so
// per-shard range pages merge without conversion).
type Entry[K cmp.Ordered, V any] = core.KV[K, V]

// snapshot collects every shard's key-sorted live contents and merges
// them into one globally ordered slice.
func (m *Map[K, V]) snapshot() []Entry[K, V] {
	lists := make([][]Entry[K, V], len(m.shards))
	for i, s := range m.shards {
		s.Items(func(k K, v V) bool {
			lists[i] = append(lists[i], Entry[K, V]{Key: k, Val: v})
			return true
		})
	}
	merged, _ := core.MergePage(lists, 0, nil)
	return merged
}

// Items visits every item in ascending key order, merging the per-shard
// orders. Like the per-engine Items, it is only valid while the map is
// quiescent (no operations in flight); it exists for draining, debugging
// and tests, not as a concurrent query. O(n·log S).
func (m *Map[K, V]) Items(visit func(k K, v V) bool) {
	for _, e := range m.snapshot() {
		if !visit(e.Key, e.Val) {
			return
		}
	}
}

// rangeVisitPage is Range's page size: small enough that each page's
// broadcast stays a light batch op per shard, large enough that paging
// overhead (one broadcast per page) amortizes.
const rangeVisitPage = 512

// Range visits every item with lo <= key < hi in ascending key order.
// Unlike Items it requires no quiescence: it pages through RangePage, so
// it runs concurrently with any other operations and never blocks
// writers. Each page is a consistent snapshot; across pages the map may
// change (items inserted or deleted between pages are visited or skipped
// accordingly), the usual contract of a live paged scan.
func (m *Map[K, V]) Range(lo, hi K, visit func(k K, v V) bool) {
	var buf []Entry[K, V]
	cur, xlo := lo, false
	for {
		page, more := m.RangePage(cur, xlo, hi, rangeVisitPage, buf[:0])
		buf = page
		for _, e := range page {
			if !visit(e.Key, e.Val) {
				return
			}
		}
		if !more || len(page) == 0 {
			return
		}
		cur, xlo = page[len(page)-1].Key, true
	}
}
