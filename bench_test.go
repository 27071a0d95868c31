package pws

// The benchmark harness: one Benchmark per experiment of EXPERIMENTS.md
// (regenerating its table at reduced scale; run cmd/wsbench for the full
// tables) plus per-operation micro-benchmarks for every map.
//
//	go test -bench=. -benchmem
//	go test -bench BenchmarkE4   # one experiment

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

func tableBench(b *testing.B, fn func(experiments.Scale) experiments.Table) {
	b.Helper()
	var last experiments.Table
	for i := 0; i < b.N; i++ {
		last = fn(experiments.Quick)
	}
	b.Log("\n" + last.String())
}

func BenchmarkE1_M0WorkingSetBound(b *testing.B) { tableBench(b, experiments.E1M0WorkBound) }
func BenchmarkE2_EntropySort(b *testing.B)       { tableBench(b, experiments.E2EntropySort) }
func BenchmarkE3_ParallelPivot(b *testing.B)     { tableBench(b, experiments.E3ParallelPivot) }
func BenchmarkE4_M1WorkBound(b *testing.B)       { tableBench(b, experiments.E4M1WorkBound) }
func BenchmarkE5_M1Latency(b *testing.B)         { tableBench(b, experiments.E5M1Latency) }
func BenchmarkE6_M2WorkBound(b *testing.B)       { tableBench(b, experiments.E6M2WorkBound) }
func BenchmarkE7_M2HotLatency(b *testing.B)      { tableBench(b, experiments.E7M2HotLatency) }
func BenchmarkE8_VsBatchedTree(b *testing.B)     { tableBench(b, experiments.E8VsBatchedTree) }
func BenchmarkE9_Scalability(b *testing.B)       { tableBench(b, experiments.E9Scalability) }
func BenchmarkE10_RecencyCurve(b *testing.B)     { tableBench(b, experiments.E10RecencyCurve) }
func BenchmarkE12_ParallelBuffer(b *testing.B)   { tableBench(b, experiments.E12ParallelBuffer) }
func BenchmarkE13_TwoThreeBatch(b *testing.B)    { tableBench(b, experiments.E13TwoThreeBatch) }
func BenchmarkE14_AblationSort(b *testing.B)     { tableBench(b, experiments.E14AblationSort) }
func BenchmarkE15_AblationBatch(b *testing.B)    { tableBench(b, experiments.E15AblationBatch) }
func BenchmarkE16_SchedulerModel(b *testing.B)   { tableBench(b, experiments.E16SchedulerModel) }

// --- Micro-benchmarks: per-operation costs of every map ---

const (
	benchMapSize  = 1 << 16
	benchUniverse = 1 << 16
)

func benchKeys(pattern string) []int {
	rng := rand.New(rand.NewSource(99))
	switch pattern {
	case "hot":
		return workload.RecencyBoundedKeys(rng, 1<<16, benchUniverse, 8)
	case "zipf":
		return workload.ZipfKeys(rng, 1<<16, benchUniverse, 0.99)
	default:
		return workload.UniformKeys(rng, 1<<16, benchUniverse)
	}
}

func benchSeqMap(b *testing.B, m Map[int, int], pattern string) {
	b.Helper()
	keys := benchKeys(pattern)
	for i := 0; i < benchMapSize; i++ {
		m.Insert(i, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(keys[i%len(keys)])
	}
}

func BenchmarkM0Get_Hot(b *testing.B)     { benchSeqMap(b, NewM0[int, int](nil), "hot") }
func BenchmarkM0Get_Zipf(b *testing.B)    { benchSeqMap(b, NewM0[int, int](nil), "zipf") }
func BenchmarkM0Get_Uniform(b *testing.B) { benchSeqMap(b, NewM0[int, int](nil), "uniform") }

func BenchmarkIaconoGet_Hot(b *testing.B)  { benchSeqMap(b, NewIacono[int, int](nil), "hot") }
func BenchmarkIaconoGet_Zipf(b *testing.B) { benchSeqMap(b, NewIacono[int, int](nil), "zipf") }

func BenchmarkSplayGet_Hot(b *testing.B)  { benchSeqMap(b, NewSplay[int, int](nil), "hot") }
func BenchmarkSplayGet_Zipf(b *testing.B) { benchSeqMap(b, NewSplay[int, int](nil), "zipf") }

func benchConcMap(b *testing.B, m ConcurrentMap[int, int], pattern string) {
	b.Helper()
	defer m.Close()
	keys := benchKeys(pattern)
	for i := 0; i < benchMapSize; i++ {
		m.Insert(i, i)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := rand.Intn(len(keys))
		for pb.Next() {
			m.Get(keys[i%len(keys)])
			i++
		}
	})
}

func BenchmarkM1Get_Hot(b *testing.B)  { benchConcMap(b, NewM1[int, int](Options{}), "hot") }
func BenchmarkM1Get_Zipf(b *testing.B) { benchConcMap(b, NewM1[int, int](Options{}), "zipf") }

func BenchmarkM2Get_Hot(b *testing.B)  { benchConcMap(b, NewM2[int, int](Options{}), "hot") }
func BenchmarkM2Get_Zipf(b *testing.B) { benchConcMap(b, NewM2[int, int](Options{}), "zipf") }

func BenchmarkBatchedTreeGet_Zipf(b *testing.B) {
	benchConcMap(b, NewBatchedTree[int, int](0, nil), "zipf")
}

// --- Sharded vs single-instance throughput across goroutine counts ---

// benchAtGoroutines drives b.N Gets through m from exactly g goroutines on
// a Zipf-hot key mix, so ns/op across sub-benchmarks compares throughput
// at each concurrency level.
func benchAtGoroutines(b *testing.B, mk func() ConcurrentMap[int, int], g int) {
	b.Helper()
	m := mk()
	defer m.Close()
	keys := benchKeys("zipf")
	for i := 0; i < benchMapSize; i++ {
		m.Insert(i, i)
	}
	b.ResetTimer()
	// Split exactly b.N ops across the g goroutines so ns/op stays
	// per-operation at every concurrency level.
	base, rem := b.N/g, b.N%g
	var wg sync.WaitGroup
	for c := 0; c < g; c++ {
		n := base
		if c < rem {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			off := c * 7919
			for i := 0; i < n; i++ {
				m.Get(keys[(off+i)%len(keys)])
			}
		}(c, n)
	}
	wg.Wait()
	b.StopTimer() // keep shard drain/teardown out of the measurement
}

// BenchmarkShardedVsSingle compares the sharded front-end against
// single-instance M1/M2 at several goroutine counts:
//
//	go test -bench Sharded -benchtime=1x
func BenchmarkShardedVsSingle(b *testing.B) {
	impls := []struct {
		name string
		mk   func() ConcurrentMap[int, int]
	}{
		{"m1", func() ConcurrentMap[int, int] { return NewM1[int, int](Options{}) }},
		{"sharded-m1", func() ConcurrentMap[int, int] { return NewSharded[int, int](ShardedOptions{}) }},
		{"m2", func() ConcurrentMap[int, int] { return NewM2[int, int](Options{}) }},
	}
	for _, g := range []int{1, 4, 16} {
		for _, tc := range impls {
			b.Run(fmt.Sprintf("impl=%s/goroutines=%d", tc.name, g), func(b *testing.B) {
				benchAtGoroutines(b, tc.mk, g)
			})
		}
	}
}

func BenchmarkM1InsertDelete(b *testing.B) {
	m := NewM1[int, int](Options{})
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(i, i)
		if i%2 == 1 {
			m.Delete(i - 1)
		}
	}
}

func BenchmarkM2InsertDelete(b *testing.B) {
	m := NewM2[int, int](Options{})
	defer m.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Insert(i, i)
		if i%2 == 1 {
			m.Delete(i - 1)
		}
	}
}
