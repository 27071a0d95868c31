package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/esort"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/pbuffer"
	"repro/internal/twothree"
)

// Config configures the parallel working-set maps.
type Config struct {
	// P is the processor-count parameter p of the paper: bunches have size
	// P², and M1 cut batches take ceil(log n / P) bunches. Defaults to
	// runtime.GOMAXPROCS(0).
	P int
	// Pivot selects the PESort pivot strategy (default MedianOfMedians).
	Pivot esort.PivotStrategy
	// Counter, when non-nil, accumulates structural work for experiments.
	Counter *metrics.Counter
	// Obs, when non-nil, receives the engine's depth telemetry: per
	// lookup, which structure answered it and at what segment index
	// (internal/obs). Recording is per resolved group — a few atomic
	// adds — so the hot path keeps its allocation ceilings.
	Obs *obs.EngineObs
	// RecordLinearization, when set, makes the engine log the linearization
	// it induces (batch order; per key, arrival order) so experiments can
	// compute the working-set bound W_L it must be measured against.
	RecordLinearization bool
	// MaxBytes, when positive, bounds the engine's approximate resident
	// bytes (keys + values + itemOverhead per item): at every batch
	// boundary the engine evicts least-recent items from its deepest
	// segment — the cold end of the working-set hierarchy, which a new
	// item enters at the front (slab.insertLast) — until back under
	// budget. Evicted items vanish as if deleted; the SetOnEvict hook
	// observes them. Zero or negative means unbounded (byte accounting
	// still runs, so Bytes reports the footprint either way). M1 only:
	// NewM2 panics on a positive value.
	MaxBytes int64
}

func (c Config) withDefaults() Config {
	if c.P < 1 {
		c.P = runtime.GOMAXPROCS(0)
	}
	if c.P < 2 {
		c.P = 2
	}
	return c
}

// M1 is the simple batched parallel working-set map of Section 6
// (Theorem 3): operations are implicitly batched through a parallel
// buffer, cut into bunches of size p², entropy-sorted to combine
// duplicates, and passed as group-operations through the segments.
// Its total work is O(W_L + e_L·log p) for a batch-preserving
// linearization L (Theorem 12).
//
// All methods are safe for concurrent use; each call blocks until the
// engine returns its result, exactly like calling an atomic map. There
// are two ways in, one engine: point operations (Do and the methods on
// it) are the paper's crowd of callers — parallel buffer, feed buffer,
// activation — while ApplyInto runs a caller-owned batch on the calling
// goroutine. Both run their cut batches under eng.
type M1[K cmp.Ordered, V any] struct {
	cfg   Config
	pb    *pbuffer.Buffer[*call[K, V]]
	act   *locks.Activation
	rec   *opRecorder[K, V]
	calls callPool[K, V]

	// eng serializes the engine: the activation run and ApplyInto hold it
	// for every cut batch.
	eng sync.Mutex

	// Engine-private state: touched only under eng. The arena fields are
	// per-batch scratch reused across cut batches, so the steady-state
	// engine loop performs (nearly) no allocation; see DESIGN.md
	// "Allocation discipline".
	cutSc   []call[K, V] // ApplyInto's call frames (no completion channel)
	feed    *feedBuffer[*call[K, V]]
	slab    slab[K, V]
	mem     *memAcct[K, V]
	size    int
	flushSc []*call[K, V]  // pbuffer.FlushInto target
	batchSc []*call[K, V]  // the cut batch: feed.takeInto target, or cutSc's frames
	keySc   []K            // processBatch key extraction
	permSc  []int          // esort.PESortInto permutation
	sortSc  []int          // esort.PESortInto partition scratch
	groupSc []*group[K, V] // buildGroups output
	groups  groupArena[K, V]
	insKeys []K           // finishBatch insertion keys
	insVals []V           // finishBatch insertion values
	rangeCs []*call[K, V] // range calls split out of the batch
	rangeSc rangeScratch[K, V]

	sizeA   atomic.Int64 // published size for Len()
	feedA   atomic.Int64 // published feed-buffer size for the ready condition
	batches atomic.Int64 // processed cut batches (diagnostics)
	pending locks.WaitCounter
	closed  atomic.Bool
}

// NewM1 creates an M1 map.
func NewM1[K cmp.Ordered, V any](cfg Config) *M1[K, V] {
	cfg = cfg.withDefaults()
	m := &M1[K, V]{
		cfg:  cfg,
		pb:   pbuffer.New[*call[K, V]](cfg.P),
		feed: newFeedBuffer[*call[K, V]](cfg.P * cfg.P),
		rec:  &opRecorder[K, V]{on: cfg.RecordLinearization},
	}
	m.slab.cnt = cfg.Counter
	m.slab.obs = cfg.Obs
	m.slab.pool = twothree.NewNodePool[K, V]()
	m.slab.deep = true
	m.mem = newMemAcct[K, V](cfg.MaxBytes)
	m.slab.mem = m.mem
	m.act = locks.NewActivation(
		func() bool { return m.pb.Len() > 0 || m.feedA.Load() > 0 },
		m.engineRun,
	)
	return m
}

// Get searches for key k.
func (m *M1[K, V]) Get(k K) (V, bool) {
	r := m.Do(Op[K, V]{Kind: OpGet, Key: k})
	return r.Val, r.OK
}

// Insert adds k with value v, or updates it if present; it returns the
// previous value and whether the key existed.
func (m *M1[K, V]) Insert(k K, v V) (V, bool) {
	r := m.Do(Op[K, V]{Kind: OpInsert, Key: k, Val: v})
	return r.Val, r.OK
}

// Delete removes k; it returns the removed value and whether the key
// existed.
func (m *M1[K, V]) Delete(k K) (V, bool) {
	r := m.Do(Op[K, V]{Kind: OpDelete, Key: k})
	return r.Val, r.OK
}

// Do submits one operation and waits for its result: the paper's
// implicit batching (Section 6.1). The op enters the parallel buffer in a
// pooled call frame, the activation cuts whatever concurrent callers have
// buffered into batches through the feed, and the caller parks on its
// frame until the engine completes it.
func (m *M1[K, V]) Do(op Op[K, V]) Result[V] {
	if m.closed.Load() {
		panic("core: M1 used after Close")
	}
	m.pending.Add()
	defer m.pending.Done()
	c := m.calls.get(op)
	m.pb.Add(c)
	m.act.Activate()
	r := c.wait()
	m.calls.put(c)
	return r
}

// Len returns the current number of items (racy snapshot).
func (m *M1[K, V]) Len() int { return int(m.sizeA.Load()) }

// Bytes returns the approximate resident bytes of the map's items
// (keys + values + a flat per-item structural overhead).
func (m *M1[K, V]) Bytes() int64 { return m.mem.bytes.Load() }

// Evicted returns how many items the byte budget has evicted.
func (m *M1[K, V]) Evicted() int64 { return m.mem.evicted.Load() }

// SetOnEvict installs the eviction hook, called synchronously on the
// engine goroutine for every item evicted by the byte budget. Must be
// set before operations are submitted.
func (m *M1[K, V]) SetOnEvict(fn func(K, V)) { m.mem.onEvict = fn }

// SetKeyHooks installs the per-key sidecar hooks, consulted at group
// resolution — the engine's per-key serialization point (see KeyHooks).
// Must be set before operations are submitted.
func (m *M1[K, V]) SetKeyHooks(h *KeyHooks[K, V]) { m.slab.hooks = h }

// Batches returns the number of cut batches processed so far.
func (m *M1[K, V]) Batches() int64 { return m.batches.Load() }

// Close marks the map closed and waits for in-flight operations to drain.
func (m *M1[K, V]) Close() {
	m.closed.Store(true)
	m.pending.Wait()
}

// DrainLinearization returns and clears the recorded linearization
// (RecordLinearization mode only).
func (m *M1[K, V]) DrainLinearization() []Op[K, V] { return m.rec.take() }

// Quiesce blocks until no client operations are in flight and the engine
// activation has gone idle. Results are delivered before the activation
// run finishes its structural tail work (capacity restoration), so waiting
// for pending alone does not imply quiescence. Only meaningful once
// clients have stopped submitting operations: with no new submissions,
// pending drains to zero (so the feed is empty) and the activation then
// winds down monotonically, making the two-step wait sufficient.
func (m *M1[K, V]) Quiesce() {
	m.pending.Wait()
	m.act.WaitIdle()
}

// engineRun cuts one batch from the point ops in the parallel buffer and
// feed and runs it. It runs under the activation interface, which makes
// it the buffer's single flusher, and under eng, which it shares with
// ApplyInto.
func (m *M1[K, V]) engineRun() bool {
	m.eng.Lock()
	defer m.eng.Unlock()
	m.flushSc = m.pb.FlushInto(m.flushSc[:0])
	m.feed.add(m.flushSc)
	if m.feed.len() == 0 {
		return false
	}
	batch := m.feed.takeInto(m.numBunches(), m.batchSc[:0])
	m.batchSc = batch
	m.feedA.Store(int64(m.feed.len()))
	m.runCut(batch)
	return true
}

// runCut processes one cut batch and finishes its boundary: eviction
// under the byte budget, then the published counters. Caller holds eng.
func (m *M1[K, V]) runCut(batch []*call[K, V]) {
	m.processBatch(batch)
	m.maybeEvict()
	m.batches.Add(1)
	m.sizeA.Store(int64(m.size))
}

// maybeEvict enforces the byte budget at the batch boundary: while over,
// pop least-recent items from the deepest segment in bounded chunks.
// Runs on the engine goroutine — never on a client's submit path.
func (m *M1[K, V]) maybeEvict() {
	for m.mem.over() {
		n := m.slab.evictColdest(evictChunk)
		if n == 0 {
			return
		}
		m.size -= n
	}
}

// numBunches is the cut-batch sizing rule of Section 6.1: ceil(log n / p)
// bunches (at least one).
func (m *M1[K, V]) numBunches() int {
	logn := bits.Len(uint(m.size + 1))
	c := (logn + m.cfg.P - 1) / m.cfg.P
	if c < 1 {
		c = 1
	}
	return c
}

func (m *M1[K, V]) processBatch(batch []*call[K, V]) {
	batch, m.rangeCs = splitRangeCalls(batch, m.rangeCs[:0])
	if len(batch) > 0 {
		keys := m.keySc[:0]
		for _, c := range batch {
			keys = append(keys, c.op.Key)
		}
		m.keySc = keys
		perm, sortSc := esort.PESortInto(keys, m.cfg.Pivot, m.permSc, m.sortSc)
		m.permSc, m.sortSc = perm, sortSc
		m.groups.reset()
		groups := buildGroups(batch, perm, m.groupSc[:0], &m.groups)
		m.groupSc = groups
		m.rec.recordGroups(groups)
		m.runSegments(groups)
	}
	// Ranges run last, against the slab the batch just finished mutating:
	// a range linearizes at the end of its cut batch (see rangeread.go).
	if len(m.rangeCs) > 0 {
		m.serveRanges(m.rangeCs)
		clear(m.rangeCs)
	}
}

// runSegments passes the group batch through the segments, applying the
// M1 rules of Section 6.1.
func (m *M1[K, V]) runSegments(groups []*group[K, V]) {
	pending := groups
	for k := 0; k < len(m.slab.segs) && len(pending) > 0; k++ {
		var delta int
		pending, delta = m.slab.pass(k, pending)
		m.size += delta
	}
	m.finishBatch(pending)
}

// finishBatch resolves the groups that reached the end of the segments:
// unsuccessful searches, deletions (already resolved when found) and
// insertions, which enter at the front of the last segment.
func (m *M1[K, V]) finishBatch(pending []*group[K, V]) {
	insKeys := m.insKeys[:0]
	insVals := m.insVals[:0]
	tailCalls := 0
	for _, g := range pending {
		if g.resolved {
			continue // deletion resolved when its item was found
		}
		tailCalls += len(g.calls)
		var zero V
		p, v := g.resolve(false, zero, m.slab.hooks)
		if p {
			insKeys = append(insKeys, g.key) // pending is key-sorted
			insVals = append(insVals, v)
		}
	}
	m.cfg.Obs.RecordLookup(obs.SrcTail, len(m.slab.segs), tailCalls)
	m.insKeys, m.insVals = insKeys, insVals
	if len(insKeys) > 0 {
		for i := range insKeys {
			m.mem.add(insKeys[i], insVals[i])
		}
		m.slab.insertLast(insKeys, insVals, 0)
		m.size += len(insKeys)
	}
	m.slab.trimEmpty()
	// Publish the size before the calls that changed it complete, so an
	// acked write is visible to Len even when another submitter's
	// goroutine is the one running the engine.
	m.sizeA.Store(int64(m.size))
	completeAll(pending)
}

// CheckInvariants verifies segment structure and the full-except-last
// capacity invariant. Only valid while the map is quiescent (test hook).
func (m *M1[K, V]) CheckInvariants() error {
	if err := m.slab.checkInvariants(true); err != nil {
		return err
	}
	if total := m.slab.size(); total != m.size {
		return fmt.Errorf("segment sizes sum to %d, tracked size %d", total, m.size)
	}
	if want, got := m.slab.recomputeBytes(), m.mem.bytes.Load(); want != got {
		return fmt.Errorf("accounted bytes %d, recomputed %d", got, want)
	}
	return nil
}
