package locks

import (
	"sync"
	"sync/atomic"
)

// WaitCounter is an in-flight-operation counter whose Wait blocks until
// the count returns to zero — the drain primitive behind Close/Quiesce.
// The increment/decrement fast path is a single atomic add; waiter
// bookkeeping (mutex, condition variable) is touched only when the count
// actually reaches zero with a waiter parked, so idle shutdown burns no
// CPU and the hot path pays nothing for the wait capability.
//
// The zero value is ready to use.
type WaitCounter struct {
	n       atomic.Int64
	waiters atomic.Int32
	mu      sync.Mutex
	cond    *sync.Cond
	once    sync.Once
}

func (w *WaitCounter) init() {
	w.once.Do(func() { w.cond = sync.NewCond(&w.mu) })
}

// Add increments the counter.
func (w *WaitCounter) Add() { w.n.Add(1) }

// Done decrements the counter, waking waiters if it reaches zero.
//
// Correctness of the unlocked fast path: Go atomics are sequentially
// consistent, so if Done's waiters load sees zero, the waiter's increment
// (inside the mutex, before its own n check) had not happened yet — and
// that later n check then observes this decrement and skips the wait.
// If the load sees a waiter, the empty Lock/Unlock pair serializes with
// the waiter's critical section, so the broadcast cannot fire in the gap
// between the waiter's n check and its cond.Wait park.
func (w *WaitCounter) Done() {
	if w.n.Add(-1) == 0 && w.waiters.Load() > 0 {
		w.init()
		w.mu.Lock()
		w.mu.Unlock() //nolint:staticcheck // empty section intended, see above
		w.cond.Broadcast()
	}
}

// Wait blocks until the count is zero. A count that is already zero
// returns immediately. Multiple concurrent waiters are allowed; each
// wakes on any transition to zero (the usual drain contract: callers
// stop producing increments before waiting).
func (w *WaitCounter) Wait() {
	if w.n.Load() == 0 {
		return
	}
	w.init()
	w.mu.Lock()
	w.waiters.Add(1)
	for w.n.Load() != 0 {
		w.cond.Wait()
	}
	w.waiters.Add(-1)
	w.mu.Unlock()
}
