// Package locks implements the synchronization mechanisms of the paper's
// Appendix A.4 in Go: the activation interface (Definition 36) and the
// dedicated lock with keys (Definition 37).
//
// The paper's QRMW pointer machine supports test-and-set and fetch-and-add;
// both map directly onto sync/atomic. Suspended threads — continuations in
// the paper — are parked goroutines resumed through per-key channels.
package locks

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Activation guards a process P with condition C per Definition 36:
// Activate starts P iff it is not already running and C holds. Any actor
// that makes C true must call Activate. The run function reports whether it
// should be reactivated (checked against C again).
//
// Unlike the paper's pseudo-code, Activate re-checks the condition after
// releasing the activity flag; in the paper's model the race between a
// condition becoming true and a concurrent failed acquisition of the flag
// is excluded by construction of its callers, while in Go the re-check
// closes the lost wake-up window for arbitrary callers.
type Activation struct {
	active atomic.Bool
	cond   func() bool
	run    func() bool
	spawn  func(func())

	// Idle-wait support (WaitIdle): same fast-path/notify discipline as
	// WaitCounter — the run loop only touches the mutex when a waiter is
	// registered.
	idleWaiters atomic.Int32
	idleMu      sync.Mutex
	idleCond    *sync.Cond
	idleOnce    sync.Once
}

// NewActivation creates an activation interface for run guarded by cond.
// cond must be cheap and safe to call concurrently. The process executes on
// the activating goroutine.
func NewActivation(cond func() bool, run func() bool) *Activation {
	return &Activation{cond: cond, run: run}
}

// NewAsyncActivation is like NewActivation but executes the process through
// spawn (typically a scheduler-pool submission), so Activate never blocks
// the caller on the process itself. M2 uses this to run its interface at
// low and its final-slab segments at high scheduler priority.
func NewAsyncActivation(cond func() bool, run func() bool, spawn func(func())) *Activation {
	return &Activation{cond: cond, run: run, spawn: spawn}
}

// Activate runs the guarded process if it is ready and not already running.
// It returns once the process is either running, scheduled (async mode), or
// not ready.
func (a *Activation) Activate() {
	if a.spawn != nil {
		if a.active.CompareAndSwap(false, true) {
			a.spawn(a.step)
		}
		return
	}
	for {
		if !a.active.CompareAndSwap(false, true) {
			return
		}
		if a.step1() {
			return
		}
	}
}

// step1 performs one guarded run and releases the activity flag; it reports
// whether the activation loop may stop.
func (a *Activation) step1() bool {
	reactivate := false
	if a.cond() {
		reactivate = a.run()
	}
	a.active.Store(false)
	if a.idleWaiters.Load() > 0 {
		a.initIdle()
		a.idleMu.Lock()
		a.idleMu.Unlock() //nolint:staticcheck // empty section intended, see WaitCounter.Done
		a.idleCond.Broadcast()
	}
	return !reactivate && !a.cond()
}

func (a *Activation) initIdle() {
	a.idleOnce.Do(func() { a.idleCond = sync.NewCond(&a.idleMu) })
}

// WaitIdle blocks until the guarded process is not executing. Like the
// polling loop it replaces, it does not promise the process will never
// run again — callers (Quiesce) first drain their own pending work, after
// which the activation winds down monotonically and WaitIdle's return
// means the engine is at rest.
func (a *Activation) WaitIdle() {
	if !a.active.Load() {
		return
	}
	a.initIdle()
	a.idleMu.Lock()
	a.idleWaiters.Add(1)
	for a.active.Load() {
		a.idleCond.Wait()
	}
	a.idleWaiters.Add(-1)
	a.idleMu.Unlock()
}

// step is the async-mode body: one guarded run, then reschedule if needed.
func (a *Activation) step() {
	if !a.step1() {
		a.Activate()
	}
}

// Dedicated is the paper's dedicated lock with keys [0..k): a blocking lock
// where simultaneous acquisitions must use distinct keys. A thread
// acquiring with key i is guaranteed to obtain the lock after at most O(k)
// other acquisitions — the release scans keys in cyclic order from the last
// holder, so no key is bypassed more than once per full rotation.
type Dedicated struct {
	count atomic.Int64
	last  atomic.Int64
	slots []atomic.Pointer[chan struct{}]
}

// NewDedicated creates a dedicated lock with k keys.
func NewDedicated(k int) *Dedicated {
	if k < 1 {
		panic("locks: NewDedicated requires k >= 1")
	}
	return &Dedicated{slots: make([]atomic.Pointer[chan struct{}], k)}
}

// Acquire obtains the lock using key i, blocking if necessary. Two
// concurrent acquisitions must never share a key (the paper's usage
// contract); each structure using the lock owns a fixed key.
func (d *Dedicated) Acquire(i int) {
	if d.count.Add(1) == 1 {
		d.last.Store(int64(i))
		return
	}
	ch := make(chan struct{})
	if !d.slots[i].CompareAndSwap(nil, &ch) {
		panic("locks: Dedicated.Acquire: key used concurrently")
	}
	<-ch
	d.last.Store(int64(i))
}

// Release releases the lock and wakes the next waiter in cyclic key order
// after the releasing holder's key, if any.
func (d *Dedicated) Release() {
	if d.count.Add(-1) == 0 {
		return
	}
	// At least one waiter exists or is about to publish its channel; scan
	// cyclically (starting after the last holder's key) until we find it.
	k := len(d.slots)
	j := int(d.last.Load())
	for {
		j = (j + 1) % k
		if ch := d.slots[j].Swap(nil); ch != nil {
			close(*ch)
			return
		}
		runtime.Gosched()
	}
}
