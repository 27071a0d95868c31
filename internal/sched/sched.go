// Package sched implements the scheduler substrate of the paper: a
// work-stealing task pool with the two-level prioritization of the
// weak-priority scheduler (Section 7.2).
//
// A weak-priority scheduler has a high-priority class Q1 and a low-priority
// class Q2; at every step, at least half the processors greedily prefer Q1
// tasks. Here every worker prefers high-priority tasks (scanning all
// high-priority deques before any low-priority one), which satisfies the
// requirement. M2 assigns its final-slab segment activations to the high
// class and everything else (interface runs, first-slab work) to the low
// class, exactly as prescribed by the paper.
//
// Section 8 of the paper notes that practical deployments replace the
// idealized greedy scheduler with work stealing; this pool is that
// translation: external submissions are distributed round-robin across
// per-worker deques, owners pop LIFO, thieves steal FIFO.
//
// Its one user is M2 (experiments E6, E7, E9 and E15, and internal/core's
// suite): the serving stack runs M1, which schedules nothing.
package sched

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
)

// Priority is a two-level task priority.
type Priority int

const (
	// Low is the default priority (the paper's Q2).
	Low Priority = iota
	// High is the weakly prioritized class (the paper's Q1).
	High
	numPriorities
)

// Task is a unit of scheduled work.
type Task func()

type workerQ struct {
	mu sync.Mutex
	q  [numPriorities][]Task
	_  [32]byte
}

func (w *workerQ) push(t Task, pri Priority) {
	w.mu.Lock()
	w.q[pri] = append(w.q[pri], t)
	w.mu.Unlock()
}

// popOwn removes the most recently pushed task of the given priority.
func (w *workerQ) popOwn(pri Priority) Task {
	w.mu.Lock()
	defer w.mu.Unlock()
	q := w.q[pri]
	if len(q) == 0 {
		return nil
	}
	t := q[len(q)-1]
	w.q[pri] = q[:len(q)-1]
	return t
}

// steal removes the oldest task of the given priority.
func (w *workerQ) steal(pri Priority) Task {
	w.mu.Lock()
	defer w.mu.Unlock()
	q := w.q[pri]
	if len(q) == 0 {
		return nil
	}
	t := q[0]
	w.q[pri] = q[1:]
	return t
}

// Stats are cumulative scheduler counters.
type Stats struct {
	Executed int64 // tasks run
	Stolen   int64 // tasks obtained from another worker's deque
	HighRuns int64 // tasks run at High priority
}

// Pool is a fixed-size weak-priority work-stealing pool. Create with New;
// Close must be called to release the workers.
type Pool struct {
	workers []workerQ
	rr      atomic.Int64
	sem     chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup // worker goroutines
	tasks   sync.WaitGroup // in-flight tasks
	stopped atomic.Bool

	executed atomic.Int64
	stolen   atomic.Int64
	highRuns atomic.Int64
}

// New creates a pool with p workers (p < 1 selects 1).
func New(p int) *Pool {
	if p < 1 {
		p = 1
	}
	pool := &Pool{
		workers: make([]workerQ, p),
		sem:     make(chan struct{}, p),
		stop:    make(chan struct{}),
	}
	pool.wg.Add(p)
	for i := 0; i < p; i++ {
		go pool.worker(i)
	}
	return pool
}

// Submit schedules t at the given priority. Safe for concurrent use,
// including from inside running tasks. Submitting after Close panics.
func (p *Pool) Submit(t Task, pri Priority) {
	if p.stopped.Load() {
		panic("sched: Submit on closed Pool")
	}
	p.tasks.Add(1)
	i := int(p.rr.Add(1)) % len(p.workers)
	if i < 0 {
		i += len(p.workers)
	}
	p.workers[i].push(t, pri)
	select {
	case p.sem <- struct{}{}:
	default:
		// The semaphore already holds a wake-up token for every worker;
		// whichever worker drains one will rescan and find this task.
	}
}

// findTask scans all deques, all High before any Low: the worker's own
// deque first (LIFO), then steals (FIFO) in random victim order.
func (p *Pool) findTask(self int) (Task, bool) {
	n := len(p.workers)
	for pri := High; pri >= Low; pri-- {
		if t := p.workers[self].popOwn(pri); t != nil {
			return t, pri == High
		}
		off := rand.IntN(n)
		for j := 0; j < n; j++ {
			v := (off + j) % n
			if v == self {
				continue
			}
			if t := p.workers[v].steal(pri); t != nil {
				p.stolen.Add(1)
				return t, pri == High
			}
		}
	}
	return nil, false
}

func (p *Pool) worker(self int) {
	defer p.wg.Done()
	for {
		t, high := p.findTask(self)
		if t != nil {
			p.runTask(t, high)
			continue
		}
		select {
		case <-p.sem:
		case <-p.stop:
			// Drain anything still queued before exiting.
			for {
				t, high := p.findTask(self)
				if t == nil {
					return
				}
				p.runTask(t, high)
			}
		}
	}
}

func (p *Pool) runTask(t Task, high bool) {
	defer p.tasks.Done()
	p.executed.Add(1)
	if high {
		p.highRuns.Add(1)
	}
	t()
}

// Wait blocks until all submitted tasks (including tasks they submit) have
// completed.
func (p *Pool) Wait() { p.tasks.Wait() }

// Close waits for all in-flight tasks and then stops the workers.
func (p *Pool) Close() {
	p.tasks.Wait()
	if p.stopped.CompareAndSwap(false, true) {
		close(p.stop)
	}
	p.wg.Wait()
}

// Stats returns cumulative counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Executed: p.executed.Load(),
		Stolen:   p.stolen.Load(),
		HighRuns: p.highRuns.Load(),
	}
}
