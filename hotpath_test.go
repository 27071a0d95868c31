package pws

// Allocation-regression ceilings for the hot path (E18, now in
// docs/history/EXPERIMENTS_E18-E23.md): testing.AllocsPerRun bounds on the
// warm steady-state cost of the map-side request shapes, so a future
// change cannot silently reintroduce per-operation garbage. Each ceiling
// is 2 × the worst reading at GOMAXPROCS 1, 2 and 4, plus 4 — room for
// tree-rebalancing variance (node churn is data-dependent), none for
// losing a pooled layer (call frames, batch arenas, pbuffer recycling,
// shard Apply scratch). The server-side ceilings live in
// internal/server/hotpath_test.go. Skipped under -race, whose
// instrumentation inflates counts.

import "testing"

func TestAllocsWarmM1Get(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m := NewM1[int, int](Options{})
	defer m.Close()
	for i := 0; i < 1024; i++ {
		m.Insert(i, i)
	}
	m.Get(7)
	// Measured 0 allocs/op at GOMAXPROCS 1/2/4 (the node pool absorbs the
	// front-segment promotion's churn); was 42 before the zero-allocation
	// work.
	const ceiling = 4
	if n := testing.AllocsPerRun(200, func() { m.Get(7) }); n > ceiling {
		t.Errorf("warm M1 Get: %.1f allocs/op, ceiling %d", n, ceiling)
	}
}

func TestAllocsFrontCacheGet(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m := NewSharded[int, int](ShardedOptions{FrontCache: 1024})
	defer m.Close()
	for i := 0; i < 1024; i++ {
		m.Insert(i, i)
	}
	m.Get(7) // miss: reserves a slot and installs the engine's answer
	m.Get(7) // hit
	// A front-cache hit is a hash, a bounded probe and two atomic loads:
	// the ceiling is exactly zero, so any allocation on the cached read
	// path is a regression.
	if n := testing.AllocsPerRun(200, func() { m.Get(7) }); n > 0 {
		t.Errorf("front-cache hit Get: %.1f allocs/op, ceiling 0", n)
	}
	fs := m.FrontStats()
	if fs.Hits < 200 {
		t.Errorf("front cache recorded %d hits; the measured Gets were not cached", fs.Hits)
	}
}

func TestAllocsRangePage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m := NewSharded[int, int](ShardedOptions{})
	defer m.Close()
	for i := 0; i < 4096; i++ {
		m.Insert(i, i)
	}
	var page []KV[int, int]
	read := func() { page, _ = m.RangePage(1024, false, 4096, 64, page[:0]) }
	read()
	// Measured 0 allocs per 64-pair page at GOMAXPROCS 1/2/4 (1/2/4 while
	// each shard's range took a pooled call frame): the pooled range
	// scratch, the per-shard request frames, the engines' leaf/merge
	// scratch and the caller's page buffer are all reused, so a paging
	// scanner puts no steady-state pressure on the GC.
	const ceiling = 4
	if n := testing.AllocsPerRun(100, read); n > ceiling {
		t.Errorf("warm 64-pair RangePage: %.1f allocs/page, ceiling %d", n, ceiling)
	}
}

func TestAllocsWarmShardedApply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m := NewSharded[int, int](ShardedOptions{})
	defer m.Close()
	for i := 0; i < 4096; i++ {
		m.Insert(i, i)
	}
	ops := make([]Op[int, int], 64)
	for i := range ops {
		ops[i] = Op[int, int]{Kind: OpGet, Key: i * 13 % 4096}
	}
	var res []Result[int]
	apply := func() { res = m.ApplyInto(ops, res[:0]) }
	apply()
	// Measured 6/8/8 allocs per 64-op batch at GOMAXPROCS 1/2/4 (7/10/12
	// with a pooled call frame per op); was ~2340 before the node pool.
	// The routing itself — counting-sort split, engine-owned cut frames,
	// result buffers — is allocation-free.
	const ceiling = 20
	if n := testing.AllocsPerRun(50, apply); n > ceiling {
		t.Errorf("warm sharded 64-op Apply: %.1f allocs/batch, ceiling %d", n, ceiling)
	}
}
