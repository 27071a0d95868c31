// Package coalesce implements the cross-connection group-commit
// scheduler: many submitters (the server's connection goroutines) hand
// their decoded operations to one Coalescer, which cuts the accumulated
// queue into combined batches under a size-or-deadline policy and applies
// each combined batch as one call against the underlying map. It is the
// server's only path to the map — the paper's single batching interface
// in front of the structure.
//
// There is no scheduler goroutine. A submitter whose Wait finds its job
// queued and no cut running leads: it cuts the queue, applies the cut
// and releases the other jobs, then hands the lead to the oldest job
// whose owner is blocked in Wait (flat combining). A submitter alone on
// an idle coalescer therefore runs its cut on its own goroutine and is
// never woken.
//
// This turns depth-1 traffic — unpipelined clients, one operation each
// at a time, which alone would degenerate to batch size 1 and lose
// duplicate combining and working-set adaptivity — back into the paper's
// size-p batches, the way group commit amortizes fsync in a write-ahead
// log: whoever arrives during the previous batch's application (or, with
// MaxDelay set, during the current window) rides the next combined
// batch.
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
// Jobs commit in strict submission (FIFO) order: every cut takes the
// whole queue, so a combined batch is a contiguous prefix of the
// submission order, and there is at most one leader, so batches are
// applied one at a time and no job can be overtaken. Per-connection
// operation order is preserved, and no submitter can starve — the oldest
// waiting job bounds every cut via MaxDelay. Parallelism comes from
// below: one combined batch fans out across every shard of the sharded
// map and the per-shard engines, where the paper puts it.
//
// # Backpressure
//
// The queue is bounded by construction: every submitter blocks in
// Job.Wait until its batch commits, so at most one job per connection is
// in flight. A slow apply slows admission — the closed loop is the
// backpressure.
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
// The applier is also the cut-commit seam: a cut's waiters are released
// (Job.Wait returns) only AFTER the applier has returned for that cut, so
// anything it does synchronously — apply, WAL append, fsync — happens
// strictly before any of the batch's replies can be written: the hook
// durable mode plugs into. The applier runs on the cut's leader, one cut
// at a time, so its invocations are totally ordered: a sequential log
// written from inside it matches the map's linearization order.
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
	// means no added latency: a leader cuts as soon as it leads, the
	// window timer is never armed, and a combined batch is exactly what
	// queued while the previous one was being applied.
	//
	// A positive MaxDelay is a bound, not a fixed wait: the leader also
	// cuts as soon as three quarters of the jobs the previous cut
	// released are back ("Who a cut waits for" above), so a full window
	// is waited out only cold, or once after submitters go quiet.
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
	// Handoffs counts the cuts whose leader had to be woken for them: the
	// lead passed to a job that queued behind a running cut.
	Batches  int64
	Ops      int64
	MaxBatch int64
	Jobs     int64
	Handoffs int64
	// SizeCuts, WindowCuts and DrainCuts split Batches by trigger:
	// nothing left to wait for (MaxBatch reached, the quorum back, or
	// MaxDelay zero), the window expiring, or the Close drain.
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
// holds one result per op, aligned with Ops. Every Submit is followed by
// exactly one Wait, which may run a cut; a Job may be reused (and its
// slices recycled) after Wait returns.
type Job[K cmp.Ordered, V any] struct {
	Ops []core.Op[K, V]
	Res []core.Result[V]

	c *Coalescer[K, V]
	// sig (capacity 1, made by the first Submit) carries the job's one
	// wake-up per Submit: its cut is done, or lead is set and the next
	// cut is the job's to run. queued (not yet cut), waiting (its owner
	// blocks on sig) and lead are guarded by the coalescer's mu.
	sig                   chan struct{}
	queued, waiting, lead bool

	// submitAt is the Submit timestamp (obs.Now), set only when stages
	// are traced. cut is the sequence number of the last cut that carried
	// the job, zeroed once it is counted back (Coalescer.rejoin; mu).
	submitAt int64
	cut      uint64
}

// Wait blocks until the job's combined batch has been applied and Res is
// filled. A job still queued with no cut running, or handed the lead,
// runs the cut that carries it here.
func (j *Job[K, V]) Wait() {
	c := j.c
	c.mu.Lock()
	if j.queued && !c.leading {
		c.leading = true
		c.lead(j)
		return
	}
	j.waiting = true
	c.mu.Unlock()
	<-j.sig
	if j.lead {
		c.mu.Lock()
		j.lead = false
		c.lead(j)
	}
}

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
	// leading is set while a cut runs, from the Wait that claims the
	// lead (or the hand-off that passes it) until a cut finds no owner
	// waiting in the queue.
	leading bool
	// seq numbers the cuts; back counts the jobs of cut seq that have
	// returned since, and the next cut is due once back reaches due
	// (three quarters of that cut's jobs; unreachable before the first
	// cut, so a cold coalescer waits out its window).
	seq  uint64
	back int
	due  int

	kick chan struct{} // wakes a leader waiting out its window; cap 1, lossy

	// leader-private scratch (only the job holding the lead touches these).
	timer   *time.Timer
	batches [][]core.Op[K, V]
	dsts    [][]core.Result[V]

	st struct {
		batches, ops, maxBatch, jobs, handoffs atomic.Int64
		cuts                                   [3]atomic.Int64 // by cutCause
	}
}

// New creates a Coalescer applying combined batches through apply.
// Close it after use.
func New[K cmp.Ordered, V any](cfg Config, apply Applier[K, V]) *Coalescer[K, V] {
	c := &Coalescer[K, V]{
		cfg:   cfg.withDefaults(),
		apply: apply,
		kick:  make(chan struct{}, 1),
		timer: time.NewTimer(time.Hour),
		due:   math.MaxInt,
	}
	c.timer.Stop()
	return c
}

// Stats returns a snapshot of the coalescer counters.
func (c *Coalescer[K, V]) Stats() Stats {
	return Stats{
		Batches:    c.st.batches.Load(),
		Ops:        c.st.ops.Load(),
		MaxBatch:   c.st.maxBatch.Load(),
		Jobs:       c.st.jobs.Load(),
		Handoffs:   c.st.handoffs.Load(),
		SizeCuts:   c.st.cuts[cutSize].Load(),
		WindowCuts: c.st.cuts[cutWindow].Load(),
		DrainCuts:  c.st.cuts[cutDrain].Load(),
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
	if j.sig == nil {
		j.sig = make(chan struct{}, 1)
	}
	if c.cfg.Stages != nil {
		j.submitAt = obs.Now()
	}
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		panic("coalesce: Submit after Close")
	}
	j.c, j.queued, j.waiting = c, true, false
	j.Res = grow(j.Res, len(j.Ops))
	if len(c.jobs) == 0 {
		c.firstAt = time.Now()
	}
	c.jobs = append(c.jobs, j)
	c.nops += len(j.Ops)
	// Kick the leader when the cut may be due: it sleeps on the window
	// timer otherwise, and a submission that completes the cut would
	// wait out the whole window anyway.
	wake := c.rejoin(j) || c.nops >= c.cfg.MaxBatch
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

// wake kicks a leader waiting out its window, without blocking.
func (c *Coalescer[K, V]) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Close stops admission and preempts any open window: every job already
// submitted is cut at once, by the running cut's leader or at the latest
// in its own Wait. Close neither runs nor waits for a cut. Safe to call
// repeatedly and concurrently; Submit after Close panics.
func (c *Coalescer[K, V]) Close() {
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	c.wake()
}

// cutCause records why a cut fired, for the Stats split.
type cutCause uint8

const (
	cutSize cutCause = iota
	cutWindow
	cutDrain
)

// lead runs one cut on the goroutine of j, a queued job holding the
// lead, entered with mu held: wait out the window (unless there is none,
// or the size trigger, the quorum or Close preempts it), cut the whole
// queue, apply it as one combined batch, release the other jobs, and
// pass the lead to the oldest job whose owner waits, if any.
func (c *Coalescer[K, V]) lead(j *Job[K, V]) {
	// The quorum (three quarters of the submitters the previous cut
	// released) tolerates a straggler without letting one missing
	// submitter cost every cut a window. Re-arming a fresh wait after
	// every wake keeps the policy exact under spurious kicks.
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
		c.timer.Reset(wait) // only the leader touches the timer; Reset drops a stale tick
		select {
		case <-c.kick:
		case <-c.timer.C:
		}
		c.mu.Lock()
	}
	// Cut the whole queue (a prefix of the submission order); stamping
	// the jobs opens the next cut's wait for them.
	jobs, nops := c.jobs, c.nops
	if c.cfg.Stages != nil {
		c.cfg.Stages.Record(obs.StageWindowWait, int64(time.Since(c.firstAt)))
	}
	c.seq++
	for _, o := range jobs {
		o.cut, o.queued, o.waiting = c.seq, false, false
	}
	c.back, c.due = 0, len(jobs)-len(jobs)/4
	c.jobs, c.free, c.nops = c.free[:0], jobs, 0
	c.mu.Unlock()

	c.commit(jobs, nops, cause)
	for i, o := range jobs {
		if o != j {
			o.sig <- struct{}{}
		}
		jobs[i] = nil // the cut queue becomes the next append target: drop refs
	}

	// Hand the lead to the oldest job whose owner blocks in Wait; one
	// that has not reached Wait yet claims the lead there.
	var next *Job[K, V]
	c.mu.Lock()
	for _, o := range c.jobs {
		if o.waiting {
			next, o.lead = o, true
			break
		}
	}
	c.leading = next != nil
	c.mu.Unlock()
	if next != nil {
		c.st.handoffs.Add(1)
		next.sig <- struct{}{}
	}
}

// commit applies one cut as a single combined batch and counts it. The
// caller releases the cut's jobs only after commit returns — the Applier
// contract durable mode depends on (no reply before the cut is applied
// and logged).
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
	clear(c.batches[:len(jobs)])
	clear(c.dsts[:len(jobs)])

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
	c.st.cuts[cause].Add(1)
}
