package locks

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestActivationRunsWhenReady(t *testing.T) {
	var ready atomic.Bool
	var runs atomic.Int64
	a := NewActivation(ready.Load, func() bool {
		runs.Add(1)
		ready.Store(false)
		return false
	})
	a.Activate() // not ready: no run
	if runs.Load() != 0 {
		t.Fatal("ran while not ready")
	}
	ready.Store(true)
	a.Activate()
	if runs.Load() != 1 {
		t.Fatalf("runs = %d, want 1", runs.Load())
	}
}

func TestActivationNoLostWakeup(t *testing.T) {
	// Hammer the classic race: one goroutine repeatedly makes the condition
	// true and activates; the process must consume every token eventually.
	var pending atomic.Int64
	var processed atomic.Int64
	a := NewActivation(
		func() bool { return pending.Load() > 0 },
		func() bool {
			for pending.Load() > 0 {
				pending.Add(-1)
				processed.Add(1)
			}
			return false
		},
	)
	const total = 50000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < total/4; i++ {
				pending.Add(1)
				a.Activate()
			}
		}()
	}
	wg.Wait()
	// One final activation flushes anything left by the last race window.
	a.Activate()
	deadline := time.Now().Add(5 * time.Second)
	for processed.Load() != total {
		if time.Now().After(deadline) {
			t.Fatalf("processed %d of %d", processed.Load(), total)
		}
		time.Sleep(time.Millisecond)
		a.Activate()
	}
}

func TestActivationSingleRunner(t *testing.T) {
	// The guarded process must never run twice concurrently, no matter how
	// many goroutines activate it. The condition drains (like an engine's
	// buffer) so every activation loop terminates.
	var concurrent atomic.Int32
	var pending atomic.Int64
	a := NewActivation(
		func() bool { return pending.Load() > 0 },
		func() bool {
			if concurrent.Add(1) != 1 {
				t.Error("two concurrent runs")
			}
			time.Sleep(time.Microsecond)
			pending.Add(-1)
			concurrent.Add(-1)
			return false
		},
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				pending.Add(1)
				a.Activate()
			}
		}()
	}
	wg.Wait()
}

func TestDedicatedMutualExclusionAndFairness(t *testing.T) {
	const keys = 4
	d := NewDedicated(keys)
	var held atomic.Int32
	var perKey [keys]int64
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				d.Acquire(k)
				if held.Add(1) != 1 {
					t.Error("two holders of dedicated lock")
				}
				perKey[k]++
				held.Add(-1)
				d.Release()
			}
		}(k)
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		if perKey[k] != 3000 {
			t.Fatalf("key %d acquired %d times", k, perKey[k])
		}
	}
}

func TestDedicatedBoundedBypass(t *testing.T) {
	// With k keys, a waiter must obtain the lock before any other key
	// acquires it twice more (cyclic scan). We check a weaker, robust
	// property: under sustained contention every key makes progress.
	const keys = 3
	d := NewDedicated(keys)
	var counts [keys]atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				d.Acquire(k)
				counts[k].Add(1)
				d.Release()
			}
		}(k)
	}
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
	for k := 0; k < keys; k++ {
		if counts[k].Load() == 0 {
			t.Fatalf("key %d starved", k)
		}
	}
}

func TestAsyncActivationRunsViaSpawner(t *testing.T) {
	var ran atomic.Int64
	var pendingWork atomic.Int64
	spawned := make(chan func(), 64)
	a := NewAsyncActivation(
		func() bool { return pendingWork.Load() > 0 },
		func() bool {
			pendingWork.Add(-1)
			ran.Add(1)
			return false
		},
		func(fn func()) { spawned <- fn },
	)
	pendingWork.Store(3)
	a.Activate()
	// Drain the spawn queue like a scheduler would; reactivations enqueue
	// more steps until the condition clears.
	deadline := time.Now().Add(2 * time.Second)
	for ran.Load() < 3 {
		select {
		case fn := <-spawned:
			fn()
		default:
			if time.Now().After(deadline) {
				t.Fatalf("ran %d of 3", ran.Load())
			}
			a.Activate()
		}
	}
	if pendingWork.Load() != 0 {
		t.Fatalf("pending = %d", pendingWork.Load())
	}
}

func TestAsyncActivationSingleFlight(t *testing.T) {
	var spawns atomic.Int64
	a := NewAsyncActivation(
		func() bool { return false },
		func() bool { return false },
		func(fn func()) { spawns.Add(1); go fn() },
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a.Activate()
			}
		}()
	}
	wg.Wait()
	time.Sleep(10 * time.Millisecond)
	// Every spawn corresponds to a successful CAS; with cond always false
	// each step releases immediately, so spawns <= activations but > 0.
	if spawns.Load() == 0 {
		t.Fatal("no spawns at all")
	}
}
