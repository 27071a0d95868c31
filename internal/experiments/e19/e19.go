// Package e19 implements experiment E19 of EXPERIMENTS.md: the
// cross-connection batch coalescing sweep. It lives in a sub-package of
// internal/experiments because it drives the whole network stack
// (internal/server + internal/loadgen), which the root package's bench
// harness — an in-package test importing internal/experiments — must not
// transitively depend on.
package e19

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// CoalesceSweep measures end-to-end server throughput and tail latency
// across conns × depth × coalescing window, over the in-process
// net.Pipe transport. The depth-1 rows are the experiment's point: a
// fleet of unpipelined connections rides tiny batches when the scheduler
// cuts without waiting (window 0), and a coalescing window restores the
// paper's multi-op batches across connections — the
// avg-batch column shows the mechanism, the ops/s and p99 columns the
// payoff, and allocs/op that the zero-allocation discipline survived the
// new path.
//
// Two appendix row groups probe what the main grid cannot: a uniform
// (cold-key) pair, where window-0 tail latency suffers under promotion
// churn while a window bounds it; and an open-loop
// fixed-rate pair (loadgen -rate), which prices the coalescing window in
// latency without closed-loop coordinated omission.
func CoalesceSweep(s experiments.Scale) experiments.Table {
	t := experiments.Table{
		Title: "E19: cross-connection batch coalescing (conns x depth x window)",
		Header: []string{"workload", "pacing", "conns", "depth", "window", "ops/s", "p50", "p99",
			"avg batch", "allocs/op"},
		Note: "window 0 = cut as soon as the commit loop is free (no added latency); single-core container: client+server share the CPU, so depth-1 gains are bounded by per-op wire cost — the batch-parallel win needs p>1 processors, while the tail-latency win (uniform rows) shows at any p",
	}
	ops := s.N
	if ops > 100_000 {
		ops = 100_000 // 16-cell grid; bound each cell's wall time
	}
	windows := []time.Duration{0, 250 * time.Microsecond}
	for _, conns := range []int{16, 64, 128} {
		for _, depth := range []int{1, 16} {
			for _, window := range windows {
				t.AddRow(runCell(cellCfg{
					conns: conns, depth: depth, window: window, ops: ops,
					workload: loadgen.Zipf, universe: 1 << 14,
				})...)
			}
		}
	}
	// Cold-key tail pair: uniform accesses promote from deep segments on
	// every hit; without a window depth-1 cuts stay small and pay that
	// churn per op, while combined batches amortize it.
	for _, window := range windows {
		t.AddRow(runCell(cellCfg{
			conns: 64, depth: 1, window: window, ops: ops,
			workload: loadgen.Uniform, universe: 1 << 16,
		})...)
	}
	// Open-loop pair: fixed 30k ops/s so the latency cost of the window
	// is measured against the schedule, not a self-throttling client.
	for _, window := range windows {
		t.AddRow(runCell(cellCfg{
			conns: 64, depth: 1, window: window, ops: ops,
			workload: loadgen.Zipf, universe: 1 << 14, rate: 30_000,
		})...)
	}
	return t
}

type cellCfg struct {
	conns, depth int
	window       time.Duration
	ops          int
	workload     loadgen.Workload
	universe     int
	rate         float64 // 0 = closed loop
}

// runCell runs one sweep cell: an in-process server with the given
// coalescing window under load, reporting throughput, latency percentiles,
// realized batch size and process-wide allocs/op.
func runCell(c cellCfg) []string {
	srv := server.New(server.Config{
		CoalesceWindow: c.window,
		CoalesceBatch:  1024,
	})
	defer srv.Close()
	cfg := loadgen.Config{
		Conns:    c.conns,
		Depth:    c.depth,
		Ops:      c.ops,
		Rate:     c.rate,
		Workload: c.workload,
		Universe: c.universe,
		Preload:  true,
		Seed:     19,
	}
	dial := func() (net.Conn, error) { return srv.Pipe() }

	pacing := "closed"
	if c.rate > 0 {
		pacing = fmt.Sprintf("rate=%.0f", c.rate)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	rep, err := loadgen.Run(cfg, dial)
	runtime.ReadMemStats(&after)
	if err != nil {
		return []string{string(c.workload), pacing, fmt.Sprint(c.conns), fmt.Sprint(c.depth),
			c.window.String(), "ERR: " + err.Error(), "-", "-", "-", "-"}
	}
	st := srv.Stats()
	allocs := float64(after.Mallocs-before.Mallocs) / float64(rep.Ops)
	return []string{
		string(c.workload), pacing, fmt.Sprint(c.conns), fmt.Sprint(c.depth), c.window.String(),
		fmt.Sprintf("%.0f", rep.OpsPerSec),
		rep.P50.Round(time.Microsecond).String(),
		rep.P99.Round(time.Microsecond).String(),
		fmt.Sprintf("%.1f", st.AvgBatch()),
		fmt.Sprintf("%.1f", allocs),
	}
}
