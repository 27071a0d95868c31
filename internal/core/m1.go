package core

import (
	"cmp"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/esort"
	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/obs"
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
	batcher[K, V] // its cut scratch is under eng too: ApplyInto builds cuts there

	// eng serializes the engine: the activation run and ApplyInto hold it
	// for every cut batch.
	eng sync.Mutex

	// Engine-private state: touched only under eng. The arena fields are
	// per-batch scratch reused across cut batches, so the steady-state
	// engine loop performs (nearly) no allocation; see DESIGN.md
	// "Allocation discipline".
	cutSc   []call[K, V] // ApplyInto's call frames (no completion channel)
	slab    slab[K, V]
	mem     *memAcct[K, V]
	size    int
	groups  groupArena[K, V]
	rangeCs []*call[K, V] // range calls split out of the batch
	rangeSc rangeScratch[K, V]
}

// NewM1 creates an M1 map.
func NewM1[K cmp.Ordered, V any](cfg Config) *M1[K, V] {
	m := &M1[K, V]{}
	m.init(cfg.withDefaults(), "M1")
	m.slab.cnt = m.cfg.Counter
	m.slab.obs = m.cfg.Obs
	m.slab.pool = twothree.NewNodePool[K, V]()
	m.slab.deep = true
	m.mem = newMemAcct[K, V](m.cfg.MaxBytes)
	m.slab.mem = m.mem
	m.act = locks.NewActivation(m.ready, m.engineRun)
	return m
}

// Do submits one operation and waits for its result: the paper's
// implicit batching (Section 6.1). The op enters the parallel buffer in a
// pooled call frame, the activation cuts whatever concurrent callers have
// buffered into batches through the feed, and the caller parks on its
// frame until the engine completes it.
func (m *M1[K, V]) Do(op Op[K, V]) Result[V] { return m.do(op) }

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
	batch := m.cut(m.numBunches(m.size))
	if len(batch) == 0 {
		return false
	}
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

func (m *M1[K, V]) processBatch(batch []*call[K, V]) {
	batch, m.rangeCs = splitRangeCalls(batch, m.rangeCs[:0])
	if len(batch) > 0 {
		m.runSegments(m.group(batch, &m.groups))
	}
	// Ranges run last, against the slab the batch just finished mutating:
	// a range linearizes at the end of its cut batch (see rangeread.go).
	if len(m.rangeCs) > 0 {
		m.serveRanges(m.rangeCs)
		clear(m.rangeCs)
	}
}

// runSegments passes the group batch through the segments, applying the
// M1 rules of Section 6.1, and resolves the groups that reach the end.
func (m *M1[K, V]) runSegments(groups []*group[K, V]) {
	pending := groups
	for k := 0; k < len(m.slab.segs) && len(pending) > 0; k++ {
		var delta int
		pending, delta = m.slab.pass(k, pending)
		m.size += delta
	}
	n, _ := m.slab.finish(pending, 0)
	m.size += n
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
