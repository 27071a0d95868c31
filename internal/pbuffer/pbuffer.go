// Package pbuffer implements the parallel buffer of the paper's Appendix
// A.1: the component that implicit batching interposes between client
// threads and a batched data structure.
//
// Clients add operations concurrently; when the data structure is ready it
// flushes the buffer, atomically collecting everything buffered so far as
// one input batch. The guarantee matches the paper: an operation that
// arrives during a flush is included either in the batch being flushed or
// in the next one.
//
// The paper shards the buffer into one sub-buffer per processor and climbs
// a flag tree to bound QRMW memory contention at O(log p) per call. Go's
// atomics already arbitrate contention in hardware, so the flag tree is
// replaced by a single activation CAS (see DESIGN.md); the sharding — the
// part with real practical effect — is kept.
package pbuffer

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// seqCopyCutoff is the flushed-batch size below which the combining copy
// runs inline instead of through a parallel loop.
const seqCopyCutoff = 4096

type shard[T any] struct {
	mu    sync.Mutex
	items []T
	_     [40]byte // keep shards off each other's cache lines
}

// Buffer is a sharded concurrent operation buffer. The zero value is not
// usable; create with New.
//
// Any number of goroutines may Add concurrently, but flushing is
// single-consumer: the data structure's activation run is the only
// flusher (guaranteed by the activation interface's mutual exclusion),
// which lets the flush path keep per-buffer scratch and recycle the
// sub-buffers' backing arrays instead of allocating per flush.
type Buffer[T any] struct {
	shards []shard[T]
	size   atomic.Int64

	// Flush scratch, touched only by the single consumer.
	parts   [][]T
	offsets []int
}

// New creates a buffer with p sub-buffers (p < 1 selects 1).
func New[T any](p int) *Buffer[T] {
	if p < 1 {
		p = 1
	}
	return &Buffer[T]{shards: make([]shard[T], p)}
}

// Add buffers one operation. Safe for any number of concurrent callers.
// The caller is responsible for activating the data structure afterwards
// (the activation interface makes duplicate activations cheap).
//
// The size is counted inside the sub-buffer's critical section, so an
// operation a flush can take is always one Len already reports. Counting
// after the unlock let a flush take (and subtract) an operation before
// its adder had added it: Len under-reported, the engine's ready
// condition read "empty" over a non-empty buffer and went idle, and an
// operation whose own Activate had lost the race to the running engine —
// and so relied on that engine's final ready re-check — waited forever.
func (b *Buffer[T]) Add(x T) {
	s := &b.shards[rand.IntN(len(b.shards))]
	s.mu.Lock()
	s.items = append(s.items, x)
	b.size.Add(1)
	s.mu.Unlock()
}

// AddAll buffers a sequence of operations atomically into one sub-buffer,
// preserving their relative order through the next flush. Used by M2's
// batch submission, where one client's operations on the same key must
// keep program order.
func (b *Buffer[T]) AddAll(xs []T) {
	if len(xs) == 0 {
		return
	}
	s := &b.shards[rand.IntN(len(b.shards))]
	s.mu.Lock()
	s.items = append(s.items, xs...)
	b.size.Add(int64(len(xs)))
	s.mu.Unlock()
}

// Len reports the number of currently buffered operations (racy snapshot;
// it may briefly over-report operations a flush in progress has already
// taken, never under-report buffered ones).
func (b *Buffer[T]) Len() int { return int(b.size.Load()) }

// Flush atomically swaps out all sub-buffers and returns their combined
// contents. Operations added concurrently with a flush land in this batch
// or the next. O(p + b) work, O(log p + log b) span. Single consumer; see
// the Buffer contract.
func (b *Buffer[T]) Flush() []T { return b.FlushInto(nil) }

// FlushInto is Flush appending into dst (pass consumer scratch with
// length 0 to reuse its backing array across flushes). The emptied
// sub-buffer arrays are handed back to the shards, so at steady state a
// flush cycle allocates nothing: Add appends into recycled storage and
// FlushInto copies into recycled scratch.
func (b *Buffer[T]) FlushInto(dst []T) []T {
	if b.parts == nil {
		b.parts = make([][]T, len(b.shards))
		b.offsets = make([]int, len(b.shards))
	}
	parts := b.parts
	total := 0
	for i := range b.shards {
		s := &b.shards[i]
		s.mu.Lock()
		parts[i] = s.items
		s.items = nil
		s.mu.Unlock()
		total += len(parts[i])
	}
	if total == 0 {
		b.recycle()
		return dst
	}
	b.size.Add(int64(-total))
	base := len(dst)
	if need := base + total; cap(dst) < need {
		grown := make([]T, need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:need]
	}
	off := base
	for i, p := range parts {
		b.offsets[i] = off
		off += len(p)
	}
	if total <= seqCopyCutoff {
		// Small flush: a goroutine per sub-buffer costs far more than the
		// memcpy it parallelizes (and allocates); copy inline.
		for i, p := range parts {
			copy(dst[b.offsets[i]:], p)
		}
	} else {
		parallel.For(len(parts), 1, func(i int) {
			copy(dst[b.offsets[i]:], parts[i])
		})
	}
	b.recycle()
	return dst
}

// recycle hands the swapped-out (already copied) sub-buffer arrays back
// to their shards: a shard that is still empty takes its old storage
// back. Element references are cleared first so recycled capacity does
// not pin the flushed values.
func (b *Buffer[T]) recycle() {
	for i, p := range b.parts {
		if cap(p) == 0 {
			continue
		}
		clear(p)
		s := &b.shards[i]
		s.mu.Lock()
		if s.items == nil {
			s.items = p[:0]
		}
		s.mu.Unlock()
		b.parts[i] = nil
	}
}
