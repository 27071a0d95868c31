package core

import (
	"cmp"
	"math/bits"
	"sync/atomic"

	"repro/internal/esort"
	"repro/internal/locks"
	"repro/internal/pbuffer"
)

// batcher is the paper's implicit-batching interface (Section 6.1,
// Appendix A.1), written once for every batched map here: M1, M2, whose
// first slab Section 7.1 processes like M1, and BatchedTree. A caller's
// operation enters the parallel buffer in a pooled call frame and parks on
// it; the engine's activation (act, built by the engine around its own run)
// flushes the buffer into the feed and takes a cut of whole bunches of p²
// operations (cut), entropy-sorts it and combines the calls on one key into
// a group operation (group). What the groups then run through — segments,
// a pipeline, one tree — is the engine's.
type batcher[K cmp.Ordered, V any] struct {
	cfg   Config
	name  string // the engine's name in the use-after-Close panic
	pb    *pbuffer.Buffer[*call[K, V]]
	act   *locks.Activation
	rec   opRecorder[K, V]
	calls callPool[K, V]

	// Activation-private: the feed and the per-cut scratch, reused across
	// cut batches so the steady-state cut allocates nothing (DESIGN.md
	// "Allocation discipline").
	feed    *feedBuffer[*call[K, V]]
	flushSc []*call[K, V]  // pbuffer.FlushInto target
	batchSc []*call[K, V]  // the cut batch: feed.takeInto target, or M1.cutSc's frames
	keySc   []K            // the cut's keys, for the sort
	permSc  []int          // esort.PESortInto permutation
	sortSc  []int          // esort.PESortInto partition scratch
	groupSc []*group[K, V] // buildGroups output

	sizeA   atomic.Int64 // published size for Len
	feedA   atomic.Int64 // published feed size for the ready condition
	batches atomic.Int64 // processed cut batches (diagnostics)
	pending locks.WaitCounter
	closed  atomic.Bool
}

// init sets up the buffers for cfg, which has its defaults applied. The
// engine then builds act around its run, usually guarded by ready.
func (b *batcher[K, V]) init(cfg Config, name string) {
	b.cfg, b.name = cfg, name
	b.pb = pbuffer.New[*call[K, V]](cfg.P)
	b.feed = newFeedBuffer[*call[K, V]](cfg.P * cfg.P)
	b.rec.on = cfg.RecordLinearization
}

// ready reports whether there are operations to cut.
func (b *batcher[K, V]) ready() bool { return b.pb.Len() > 0 || b.feedA.Load() > 0 }

// enter admits one submission: it panics on a closed map and counts the
// submission pending; the caller ends it with pending.Done.
func (b *batcher[K, V]) enter() {
	if b.closed.Load() {
		panic("core: " + b.name + " used after Close")
	}
	b.pending.Add()
}

// do submits one operation and waits for its result: the op enters the
// parallel buffer in a pooled call frame, the activation cuts whatever
// concurrent callers have buffered into batches through the feed, and
// the caller parks on its frame until the engine completes it.
func (b *batcher[K, V]) do(op Op[K, V]) Result[V] {
	b.enter()
	defer b.pending.Done()
	c := b.calls.get(op)
	b.pb.Add(c)
	b.act.Activate()
	r := c.wait()
	b.calls.put(c)
	return r
}

// Get searches for key k.
func (b *batcher[K, V]) Get(k K) (V, bool) {
	r := b.do(Op[K, V]{Kind: OpGet, Key: k})
	return r.Val, r.OK
}

// Insert adds k with value v, or updates it if present; it returns the
// previous value and whether the key existed.
func (b *batcher[K, V]) Insert(k K, v V) (V, bool) {
	r := b.do(Op[K, V]{Kind: OpInsert, Key: k, Val: v})
	return r.Val, r.OK
}

// Delete removes k; it returns the removed value and whether the key
// existed.
func (b *batcher[K, V]) Delete(k K) (V, bool) {
	r := b.do(Op[K, V]{Kind: OpDelete, Key: k})
	return r.Val, r.OK
}

// Len returns the current number of items (racy snapshot).
func (b *batcher[K, V]) Len() int { return int(b.sizeA.Load()) }

// Batches returns the number of cut batches processed so far.
func (b *batcher[K, V]) Batches() int64 { return b.batches.Load() }

// Close marks the map closed and waits for in-flight operations to drain.
func (b *batcher[K, V]) Close() {
	b.closed.Store(true)
	b.pending.Wait()
}

// DrainLinearization returns and clears the recorded linearization
// (RecordLinearization mode only).
func (b *batcher[K, V]) DrainLinearization() []Op[K, V] { return b.rec.take() }

// numBunches is the cut-batch sizing rule of Section 6.1 for a map of n
// items: ceil(log n / p) bunches (at least one).
func (b *batcher[K, V]) numBunches(n int) int {
	return max(1, (bits.Len(uint(n+1))+b.cfg.P-1)/b.cfg.P)
}

// cut flushes the parallel buffer into the feed and takes the next cut
// batch, up to bunches bunches; the batch is empty when nothing is
// buffered. It aliases scratch the next cut reuses. Activation only.
func (b *batcher[K, V]) cut(bunches int) []*call[K, V] {
	b.flushSc = b.pb.FlushInto(b.flushSc[:0])
	b.feed.add(b.flushSc)
	b.batchSc = b.feed.takeInto(bunches, b.batchSc[:0])
	b.feedA.Store(int64(b.feed.len()))
	return b.batchSc
}

// group entropy-sorts a cut batch by key and combines it into key-sorted
// group operations, calls on one key in arrival order, with frames from ar
// (nil: fresh frames; see groupArena for when an arena is valid), and
// records them when the linearization is logged. The groups alias scratch
// the next call reuses.
func (b *batcher[K, V]) group(batch []*call[K, V], ar *groupArena[K, V]) []*group[K, V] {
	keys := b.keySc[:0]
	for _, c := range batch {
		keys = append(keys, c.op.Key)
	}
	b.keySc = keys
	b.permSc, b.sortSc = esort.PESortInto(keys, b.cfg.Pivot, b.permSc, b.sortSc)
	if ar != nil {
		ar.reset()
	}
	b.groupSc = buildGroups(batch, b.permSc, b.groupSc[:0], ar)
	b.rec.recordGroups(b.groupSc)
	return b.groupSc
}
