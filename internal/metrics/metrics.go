// Package metrics provides low-overhead work and event counters used by the
// experiment harness to validate the paper's work bounds.
//
// Counters are optional everywhere: a nil *Counter is valid and all methods
// on it are no-ops, so production paths pay a single predictable branch.
package metrics

import "sync/atomic"

// Counter accumulates abstract "unit work" (node visits) as defined by the
// QRMW pointer machine cost model of the paper. It is safe for concurrent
// use.
type Counter struct {
	work atomic.Int64
}

// Add records n units of structural work (pointer-machine node visits).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.work.Add(n)
	}
}

// Total returns the accumulated work: the "effective work" proxy used
// throughout EXPERIMENTS.md.
func (c *Counter) Total() int64 {
	if c == nil {
		return 0
	}
	return c.work.Load()
}

// Reset zeroes the counter.
func (c *Counter) Reset() {
	if c != nil {
		c.work.Store(0)
	}
}
