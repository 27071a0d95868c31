// Package metrics provides low-overhead work and event counters used by the
// experiment harness to validate the paper's work bounds.
//
// Counters are optional everywhere: a nil *Counter is valid and all methods
// on it are no-ops, so production paths pay a single predictable branch.
package metrics

import "sync/atomic"

// Counter accumulates abstract "unit work" (node visits, comparisons,
// item moves) as defined by the QRMW pointer machine cost model of the
// paper. It is safe for concurrent use.
type Counter struct {
	work  atomic.Int64
	comps atomic.Int64
	moves atomic.Int64
}

// Add records n units of structural work (pointer-machine node visits).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.work.Add(n)
	}
}

// AddComparisons records n key comparisons.
func (c *Counter) AddComparisons(n int64) {
	if c != nil {
		c.comps.Add(n)
	}
}

// AddMoves records n item movements between segments or trees.
func (c *Counter) AddMoves(n int64) {
	if c != nil {
		c.moves.Add(n)
	}
}

// Work returns the accumulated structural work.
func (c *Counter) Work() int64 {
	if c == nil {
		return 0
	}
	return c.work.Load()
}

// Comparisons returns the accumulated comparison count.
func (c *Counter) Comparisons() int64 {
	if c == nil {
		return 0
	}
	return c.comps.Load()
}

// Moves returns the accumulated move count.
func (c *Counter) Moves() int64 {
	if c == nil {
		return 0
	}
	return c.moves.Load()
}

// Total returns work + comparisons + moves: the "effective work" proxy used
// throughout EXPERIMENTS.md.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.work.Load() + c.comps.Load() + c.moves.Load()
}

// Reset zeroes all counters.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	c.work.Store(0)
	c.comps.Store(0)
	c.moves.Store(0)
}

// Snapshot is an immutable copy of a Counter's values.
type Snapshot struct {
	Work        int64
	Comparisons int64
	Moves       int64
}

// Snapshot returns the current values.
func (c *Counter) Snapshot() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	return Snapshot{
		Work:        c.work.Load(),
		Comparisons: c.comps.Load(),
		Moves:       c.moves.Load(),
	}
}

// Total returns the sum of all snapshot fields.
func (s Snapshot) Total() int64 { return s.Work + s.Comparisons + s.Moves }

// Sub returns the component-wise difference s - o.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Work:        s.Work - o.Work,
		Comparisons: s.Comparisons - o.Comparisons,
		Moves:       s.Moves - o.Moves,
	}
}
