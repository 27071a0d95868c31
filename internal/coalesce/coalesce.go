// Package coalesce implements the cross-connection group-commit
// scheduler: many submitters (the server's connection goroutines) hand
// their decoded operations to one Coalescer, which cuts the accumulated
// queue into combined batches under a size-or-deadline policy and applies
// each combined batch as one call against the underlying map. It is the
// server's only path to the map — the paper's single batching interface
// in front of the structure.
//
// This is what turns depth-1 traffic — a fleet of unpipelined clients,
// each contributing one operation at a time — back into the paper's
// size-p batches: with a single connection's pipeline window as the only
// batch boundary, unpipelined clients degenerate to batch size 1 and lose
// duplicate combining and working-set adaptivity entirely. The Coalescer
// restores the batch across connections, the way group commit amortizes
// fsync in a write-ahead log: whoever arrives during the previous
// batch's application (or, with MaxDelay set, during the current window)
// rides the next combined batch.
//
// # Who a cut waits for
//
// With a window, a cut waits for the submitters the previous cut just
// released, not for a number of operations: each cut stamps the jobs it
// takes, and the next one fires as soon as three quarters of them are
// back — resubmitted, or reported by Skip when a submitter has nothing
// to commit this round or is gone. Submitters the previous cut did not
// carry ride whatever cut they land in but are never waited for, and a
// cold coalescer, having released nobody yet, waits out its first
// window. Counting submitters rather than operations is what lets a lone
// client with one-op jobs, or two clients with uneven job sizes, share
// cuts without a window wait on every one.
//
// # Ordering and fairness
//
// Jobs commit in strict submission (FIFO) order, and every cut takes the
// whole queue: a combined batch is a contiguous prefix of the submission
// order, batches are applied one at a time by a single commit loop, and
// no job can be overtaken. That gives two guarantees for free: per-
// connection operation order is preserved whenever each connection
// submits its jobs in order, and no submitter can starve — the oldest
// waiting job bounds every cut via MaxDelay. Parallelism is not lost to
// the single loop: one combined batch fans out across every shard of the
// sharded map and the per-shard engines' internal parallelism, which is
// exactly where the paper says the parallelism should come from.
//
// # Backpressure
//
// The queue is bounded by construction rather than by a limit of its
// own: every submitter blocks in Job.Wait until its batch commits, so at
// most one job per connection is in flight and the queue never holds
// more than MaxConns jobs. A slow apply therefore slows admission — the
// closed loop is the backpressure.
package coalesce

import (
	"cmp"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Applier applies the concatenation of batches as one combined batch,
// delivering each batch's results into the aligned dsts slice (the
// contract of shard.Map.ApplyScattered, which the server's appliers
// call; tests substitute their own).
//
// The applier is also the cut-commit seam: the commit loop releases a
// cut's waiters (Job.Wait returns) only AFTER the applier has returned
// for that cut. Anything the applier does synchronously — applying to
// the map, appending the batch to a write-ahead log, fsyncing —
// therefore happens strictly before any of the batch's replies can be
// written, which is exactly the hook the server's durable mode plugs
// into (one WAL append + fsync per cut, before the ack). Cuts are
// applied one at a time by a single loop, so applier invocations are
// totally ordered: a sequential log written from inside the applier
// matches the map's linearization order.
type Applier[K cmp.Ordered, V any] func(batches [][]core.Op[K, V], dsts [][]core.Result[V])

// Config configures a Coalescer. The zero value gets the defaults noted.
type Config struct {
	// MaxBatch cuts the queue as soon as it holds this many operations
	// (default 1024). It is a trigger, not a ceiling: operations arriving
	// while the previous batch is still being applied all ride the next
	// cut, which may exceed MaxBatch — group commit wants the batch as
	// large as the traffic makes it.
	MaxBatch int
	// MaxDelay cuts the queue when its oldest job has waited this long.
	// It bounds the latency cost of coalescing: an operation arriving
	// into an empty queue waits at most MaxDelay plus one batch
	// application before its results are delivered. Zero (or negative)
	// means no added latency: the commit loop cuts as soon as it is free,
	// the window timer is never armed, and a combined batch is exactly
	// what queued while the previous one was being applied.
	//
	// A positive MaxDelay is a bound, not a fixed wait: the commit loop
	// also cuts as soon as three quarters of the jobs the previous cut
	// released are back (resubmitted, or reported by Skip). The full
	// window is waited out only by a cold coalescer's first cut, or when
	// more than a quarter of the last cut's submitters went quiet without
	// a Skip — and then once, since the cut that follows waits only for
	// the submitters it carried.
	MaxDelay time.Duration
	// Stages, when non-nil, receives batch-lifecycle timings: each job's
	// Submit-to-cut wait (StageQueueWait) and each batch's open-window
	// time (StageWindowWait). Nil disables the clock reads entirely.
	Stages *obs.StageSet
}

func (c Config) withDefaults() Config {
	if c.MaxBatch < 1 {
		c.MaxBatch = 1024
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	return c
}

// Stats is a snapshot of the Coalescer's counters.
type Stats struct {
	// Batches is the number of combined batches committed; Ops the total
	// operations they carried; MaxBatch the largest single combined batch;
	// Jobs the jobs they carried, so Jobs/Batches is submitters per cut.
	Batches  int64
	Ops      int64
	MaxBatch int64
	Jobs     int64
	// SizeCuts, WindowCuts and DrainCuts split Batches by what triggered
	// the cut: nothing left to wait for (the MaxBatch threshold, three
	// quarters of the previous cut's jobs back, or MaxDelay zero, where
	// every cut is immediate), the MaxDelay window expiring, or the Close
	// drain.
	SizeCuts   int64
	WindowCuts int64
	DrainCuts  int64
}

// AvgBatch returns the mean operations per committed combined batch.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// Job is one submitter's contribution to a combined batch: a slice of
// operations and the slice its results come back in. Submit enqueues the
// job; Wait blocks until its batch has been applied, after which Res
// holds one result per op, aligned with Ops. A Job may be reused (and its
// slices recycled) after Wait returns; Wait may be called from several
// goroutines, all of which are released by the commit.
type Job[K cmp.Ordered, V any] struct {
	Ops []core.Op[K, V]
	Res []core.Result[V]
	wg  sync.WaitGroup

	// submitAt is the Submit timestamp (obs.Now), set only when the
	// coalescer traces stages; commit turns it into the queue-wait.
	submitAt int64
	// cut is the sequence number of the last cut that carried the job,
	// zeroed once the job is counted back (see Coalescer.rejoin). Guarded
	// by the coalescer's mu.
	cut uint64
}

// Wait blocks until the job's combined batch has been applied and Res is
// filled.
func (j *Job[K, V]) Wait() { j.wg.Wait() }

// Coalescer is the group-commit scheduler. Create with New, submit with
// Submit, stop with Close.
type Coalescer[K cmp.Ordered, V any] struct {
	cfg   Config
	apply Applier[K, V]

	mu      sync.Mutex
	jobs    []*Job[K, V] // pending queue, submission order
	free    []*Job[K, V] // spare backing array for the next cut's queue
	nops    int
	firstAt time.Time // submission time of jobs[0]
	closing bool
	// seq numbers the cuts; back counts the jobs of cut seq that have
	// returned since, and the next cut is due once back reaches due
	// (three quarters of that cut's jobs; unreachable before the first
	// cut, so a cold coalescer waits out its window).
	seq  uint64
	back int
	due  int

	kick chan struct{} // wakes the commit loop; cap 1, lossy
	done chan struct{}
	once sync.Once

	// commit-loop private scratch (only the loop touches these).
	timer   *time.Timer
	batches [][]core.Op[K, V]
	dsts    [][]core.Result[V]

	st struct {
		batches, ops, maxBatch, jobs    atomic.Int64
		sizeCuts, windowCuts, drainCuts atomic.Int64
	}
}

// New creates a Coalescer applying combined batches through apply and
// starts its commit loop. Close it after use.
func New[K cmp.Ordered, V any](cfg Config, apply Applier[K, V]) *Coalescer[K, V] {
	c := &Coalescer[K, V]{
		cfg:   cfg.withDefaults(),
		apply: apply,
		kick:  make(chan struct{}, 1),
		done:  make(chan struct{}),
		timer: time.NewTimer(time.Hour),
		due:   math.MaxInt,
	}
	if !c.timer.Stop() {
		<-c.timer.C
	}
	go c.run()
	return c
}

// Stats returns a snapshot of the coalescer counters.
func (c *Coalescer[K, V]) Stats() Stats {
	return Stats{
		Batches:    c.st.batches.Load(),
		Ops:        c.st.ops.Load(),
		MaxBatch:   c.st.maxBatch.Load(),
		Jobs:       c.st.jobs.Load(),
		SizeCuts:   c.st.sizeCuts.Load(),
		WindowCuts: c.st.windowCuts.Load(),
		DrainCuts:  c.st.drainCuts.Load(),
	}
}

// grow returns s[:n], reallocating when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Submit enqueues a job for the next combined batch. It returns
// immediately; the caller observes completion through Job.Wait. Jobs from
// one submitter are committed in their submission order (the queue is
// FIFO and cuts are whole prefixes). Panics if the Coalescer is closed.
func (c *Coalescer[K, V]) Submit(j *Job[K, V]) {
	j.wg.Add(1)
	if c.cfg.Stages != nil {
		j.submitAt = obs.Now()
	}
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		j.wg.Done()
		panic("coalesce: Submit after Close")
	}
	j.Res = grow(j.Res, len(j.Ops))
	wasEmpty := len(c.jobs) == 0
	c.jobs = append(c.jobs, j)
	c.nops += len(j.Ops)
	if wasEmpty {
		c.firstAt = time.Now()
	}
	// Kick the loop when the cut may be due: it sleeps on the window
	// timer otherwise, and a submission that completes the cut would
	// wait out the whole window anyway.
	wake := c.rejoin(j) || wasEmpty || c.nops >= c.cfg.MaxBatch
	c.mu.Unlock()
	if wake {
		c.wake()
	}
}

// Skip reports that j's submitter is back without anything to commit —
// its round was answered without a Submit, or it is going away — so a
// cut waiting for the jobs the previous cut released stops waiting for
// this one. It is a no-op without a window, for a job the latest cut did
// not carry, and after the job has already been counted back; it is safe
// after Close.
func (c *Coalescer[K, V]) Skip(j *Job[K, V]) {
	if c.cfg.MaxDelay == 0 {
		return
	}
	c.mu.Lock()
	wake := c.rejoin(j) && len(c.jobs) > 0
	c.mu.Unlock()
	if wake {
		c.wake()
	}
}

// rejoin counts j back if the latest cut carried it, and reports whether
// that completes the quorum the next cut waits for. Caller holds mu.
func (c *Coalescer[K, V]) rejoin(j *Job[K, V]) bool {
	if j.cut != c.seq {
		return false
	}
	j.cut = 0
	c.back++
	return c.back == c.due
}

// wake kicks the commit loop without blocking.
func (c *Coalescer[K, V]) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Close stops the commit loop after draining: every job already submitted
// is committed immediately (no residual window wait) before Close
// returns. Safe to call repeatedly and concurrently; Submit after Close
// panics.
func (c *Coalescer[K, V]) Close() {
	c.once.Do(func() {
		c.mu.Lock()
		c.closing = true
		c.mu.Unlock()
		c.wake()
	})
	<-c.done
}

// cutCause records why a cut fired, for the Stats split.
type cutCause uint8

const (
	cutSize cutCause = iota
	cutWindow
	cutDrain
)

// run is the commit loop: wait for work, wait out the window (unless
// there is none, or the size trigger or Close preempts it), cut the whole
// queue, apply it as one combined batch, release the waiters, repeat.
func (c *Coalescer[K, V]) run() {
	defer close(c.done)
	for {
		// Wait for work or shutdown.
		c.mu.Lock()
		for len(c.jobs) == 0 {
			if c.closing {
				c.mu.Unlock()
				return
			}
			c.mu.Unlock()
			<-c.kick
			c.mu.Lock()
		}
		// Wait out the residual window; MaxBatch, the return of the
		// previous cut's submitters, or Close cut early. The quorum is
		// three quarters of them: the margin tolerates a straggler
		// without letting one missing submitter cost every cut a window.
		// Re-arming a fresh wait after every wake keeps the policy exact
		// under spurious kicks.
		cause := cutWindow
		for {
			if c.closing {
				cause = cutDrain
				break
			}
			if c.cfg.MaxDelay == 0 || c.nops >= c.cfg.MaxBatch || c.back >= c.due {
				cause = cutSize
				break
			}
			wait := c.cfg.MaxDelay - time.Since(c.firstAt)
			if wait <= 0 {
				break
			}
			c.mu.Unlock()
			// The timer is owned by this goroutine: stop-and-drain before
			// Reset is race-free here.
			if !c.timer.Stop() {
				select {
				case <-c.timer.C:
				default:
				}
			}
			c.timer.Reset(wait)
			select {
			case <-c.kick:
			case <-c.timer.C:
			}
			c.mu.Lock()
		}
		// Cut the whole queue: batches stay contiguous prefixes of the
		// submission order. Stamping the jobs opens the next cut's wait
		// for them.
		jobs := c.jobs
		nops := c.nops
		if c.cfg.Stages != nil {
			c.cfg.Stages.Record(obs.StageWindowWait, int64(time.Since(c.firstAt)))
		}
		c.seq++
		for _, j := range jobs {
			j.cut = c.seq
		}
		c.back, c.due = 0, len(jobs)-len(jobs)/4
		c.jobs = c.free[:0]
		c.free = jobs
		c.nops = 0
		c.mu.Unlock()

		c.commit(jobs, nops, cause)
	}
}

// commit applies one cut as a single combined batch and releases its
// submitters. The release strictly follows the applier's return — the
// Applier contract durable mode depends on (no reply before the cut
// is applied and logged).
func (c *Coalescer[K, V]) commit(jobs []*Job[K, V], nops int, cause cutCause) {
	if st := c.cfg.Stages; st != nil {
		cutAt := obs.Now()
		for _, j := range jobs {
			st.Record(obs.StageQueueWait, cutAt-j.submitAt)
		}
	}
	c.batches = grow(c.batches, len(jobs))
	c.dsts = grow(c.dsts, len(jobs))
	for i, j := range jobs {
		c.batches[i] = j.Ops
		c.dsts[i] = j.Res
	}
	c.apply(c.batches[:len(jobs)], c.dsts[:len(jobs)])

	// Count the cut before releasing it, so a submitter that reads Stats
	// after Wait finds its own batch in them.
	c.st.batches.Add(1)
	c.st.ops.Add(int64(nops))
	c.st.jobs.Add(int64(len(jobs)))
	for {
		cur := c.st.maxBatch.Load()
		if int64(nops) <= cur || c.st.maxBatch.CompareAndSwap(cur, int64(nops)) {
			break
		}
	}
	switch cause {
	case cutSize:
		c.st.sizeCuts.Add(1)
	case cutWindow:
		c.st.windowCuts.Add(1)
	default:
		c.st.drainCuts.Add(1)
	}

	for i, j := range jobs {
		j.wg.Done()
		jobs[i] = nil // the cut queue becomes the next append target: drop refs
	}
	clear(c.batches[:len(jobs)])
	clear(c.dsts[:len(jobs)])
}
