package pws

// The hot-path benchmark suite of E18 (docs/history/EXPERIMENTS_E18-E23.md): allocation and
// constant-factor costs of the wire→server→shard→core request path,
// measured end-to-end at three depths. Every benchmark reports allocs/op
// so the allocation discipline of DESIGN.md is visible in CI:
//
//	go test -run='^$' -bench=BenchmarkHotPath -benchmem
//
// The companion regression ceilings live in hotpath_test.go.

import (
	"testing"
)

// BenchmarkHotPathM1Get measures a warm single-key Get on one M1 engine:
// the key sits in S[0], so this is the pure per-operation overhead of the
// call frame, parallel buffer, cut batch and completion handoff.
func BenchmarkHotPathM1Get(b *testing.B) {
	m := NewM1[int, int](Options{})
	defer m.Close()
	for i := 0; i < 1024; i++ {
		m.Insert(i, i)
	}
	m.Get(7) // warm: promote to S[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(7)
	}
}

// BenchmarkHotPathFrontCacheGet measures the hot-key read front at its
// three operating points. hit: a warm cached key, the sub-microsecond
// zero-alloc fast path the zipf acceptance criterion targets. miss: a
// key outside the cached set on a front-enabled map, i.e. the full
// engine path plus the failed consult — the price uniform workloads
// pay. contended: every processor hammering the same cached
// key, which exercises the read-side scalability of the version-word
// protocol (readers never write shared memory on a hit).
func BenchmarkHotPathFrontCacheGet(b *testing.B) {
	newWarm := func() *Sharded[int, int] {
		m := NewSharded[int, int](ShardedOptions{FrontCache: 1024})
		for i := 0; i < 4096; i++ {
			m.Insert(i, i)
		}
		m.Get(7)
		m.Get(7) // second Get is served from the front
		return m
	}
	b.Run("hit", func(b *testing.B) {
		m := newWarm()
		defer m.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Get(7)
		}
	})
	b.Run("miss", func(b *testing.B) {
		m := newWarm()
		defer m.Close()
		// Absent keys are never cached (the engine fills only keys its
		// read finds), so every iteration is a steady-state miss:
		// consult + engine.
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Get(4096 + i%4096)
		}
	})
	b.Run("contended", func(b *testing.B) {
		m := newWarm()
		defer m.Close()
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				m.Get(7)
			}
		})
	})
}

// BenchmarkHotPathRangePage measures a warm cursor page through the
// sharded front-end: one 64-pair page of a broadcast batched range read
// (one OpRange per shard riding its engine's cut batch, k-way merged),
// the server's SCAN shape without the network.
func BenchmarkHotPathRangePage(b *testing.B) {
	m := NewSharded[int, int](ShardedOptions{})
	defer m.Close()
	for i := 0; i < 4096; i++ {
		m.Insert(i, i)
	}
	var page []KV[int, int]
	m.RangePage(0, false, 4096, 64, nil) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		page, _ = m.RangePage(i%2048, false, 4096, 64, page[:0])
	}
}

// BenchmarkHotPathShardedApply measures a warm batch Apply through the
// sharded front-end: one reused 64-op Get batch spanning every shard, the
// server's submission shape without the network.
func BenchmarkHotPathShardedApply(b *testing.B) {
	m := NewSharded[int, int](ShardedOptions{})
	defer m.Close()
	for i := 0; i < 4096; i++ {
		m.Insert(i, i)
	}
	ops := make([]Op[int, int], 64)
	for i := range ops {
		ops[i] = Op[int, int]{Kind: OpGet, Key: i * 13 % 4096}
	}
	m.Apply(ops) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Apply(ops)
	}
}
