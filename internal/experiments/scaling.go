package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/esort"
	"repro/internal/pbuffer"
	"repro/internal/splay"
	"repro/internal/twothree"
	"repro/internal/workload"
)

// E9Scalability measures end-to-end throughput as the number of client
// goroutines grows, for both working-set maps, the batched tree and a
// global-lock splay tree (Theorems 3/4 end to end: batching should let
// throughput scale where the global lock flatlines).
func E9Scalability(s Scale) Table {
	t := Table{
		Title: "E9: throughput scaling with clients (Theorems 3/4 end to end)",
		Header: []string{"clients", "M1 Mop/s", "M2 Mop/s", "tree Mop/s",
			"locked-splay Mop/s"},
		Note: "paper: implicit batching admits parallelism; reproduced if batched maps scale while the lock flatlines",
	}
	rng := rand.New(rand.NewSource(6))
	universe := 1 << 16
	keys := workload.ZipfKeys(rng, s.N, universe, 0.9)
	accs := workload.GetsOf(keys)
	for _, clients := range s.Clients {
		row := []string{d(clients)}
		for _, mk := range []func() cmap{
			func() cmap { return core.NewM1[int, int](core.Config{}) },
			func() cmap { return core.NewM2[int, int](core.Config{}) },
			func() cmap { return core.NewBatchedTree[int, int](0, nil) },
			func() cmap { return baseline.NewLocked[int, int](splay.New[int, int](nil)) },
		} {
			m := mk()
			for i := 0; i < universe; i++ {
				m.Insert(i, i)
			}
			el := driveConcurrent(m, accs, clients)
			if c, ok := m.(interface{ Close() }); ok {
				c.Close()
			}
			row = append(row, f2(float64(len(accs))/el.Seconds()/1e6))
		}
		t.AddRow(row...)
	}
	return t
}

// E12ParallelBuffer validates the parallel buffer's guarantees (Appendix
// A.1): O(p+b) flush cost and full delivery under heavy contention.
func E12ParallelBuffer(s Scale) Table {
	t := Table{
		Title:  "E12: parallel buffer throughput (Appendix A.1)",
		Header: []string{"producers", "adds/µs", "mean flush batch", "flushes"},
		Note:   "paper: buffer takes O(p+b) work per batch of b; reproduced if adds/µs scales with producers",
	}
	for _, producers := range s.Procs {
		b := pbuffer.New[int](producers)
		var wg sync.WaitGroup
		perProducer := s.N
		stop := make(chan struct{})
		done := make(chan struct{})
		var flushes, total int
		go func() {
			// Flushing is single-consumer (pbuffer contract): this
			// goroutine is the only flusher until it exits, and the main
			// goroutine joins on done before its final drain flush.
			defer close(done)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := b.Flush(); len(got) > 0 {
					flushes++
					total += len(got)
				}
			}
		}()
		start := time.Now()
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perProducer; i++ {
					b.Add(i)
				}
			}()
		}
		wg.Wait()
		el := time.Since(start)
		close(stop)
		<-done
		total += len(b.Flush())
		flushes++
		mean := float64(total) / float64(flushes)
		t.AddRow(d(producers),
			f2(float64(producers*perProducer)/float64(el.Microseconds())),
			f1(mean), d(flushes))
	}
	return t
}

// E13TwoThreeBatch validates the batched 2-3 tree bound (Appendix A.2):
// batch operations cost Θ(b·log n) work, so work per op tracks lg n and
// batching beats b sequential operations on wall clock.
func E13TwoThreeBatch(s Scale) Table {
	t := Table{
		Title: "E13: batched 2-3 tree operations (Appendix A.2)",
		Header: []string{"n", "b", "batch-get ms", "seq-get ms", "upsert ms",
			"delete ms"},
		Note: "paper: Θ(b·lg n) work, O(lg b·lg n) span; reproduced if batch time ≤ sequential time and grows with lg n",
	}
	rng := rand.New(rand.NewSource(8))
	for _, n := range s.Sizes {
		for _, b := range []int{1024, 65536} {
			if b > n {
				continue
			}
			tree := twothree.New[int, int](nil)
			items := make([]twothree.Item[int, int], 0, n)
			seen := map[int]bool{}
			for len(items) < n {
				k := rng.Intn(n * 8)
				if !seen[k] {
					seen[k] = true
					items = append(items, twothree.Item[int, int]{Key: k, Payload: k})
				}
			}
			sortItems(items)
			tree.BatchUpsert(items)

			queryKeys := make([]int, b)
			for i := range queryKeys {
				queryKeys[i] = items[rng.Intn(len(items))].Key
			}
			sortInts(queryKeys)
			queryKeys = dedupInts(queryKeys)

			start := time.Now()
			tree.BatchGet(queryKeys)
			batchGet := time.Since(start)

			start = time.Now()
			for _, k := range queryKeys {
				tree.Get(k)
			}
			seqGet := time.Since(start)

			newItems := make([]twothree.Item[int, int], len(queryKeys))
			for i, k := range queryKeys {
				newItems[i] = twothree.Item[int, int]{Key: k + n*16, Payload: k}
			}
			start = time.Now()
			tree.BatchUpsert(newItems)
			up := time.Since(start)

			delKeys := make([]int, len(newItems))
			for i, it := range newItems {
				delKeys[i] = it.Key
			}
			start = time.Now()
			tree.BatchDelete(delKeys)
			del := time.Since(start)

			t.AddRow(d(n), d(len(queryKeys)),
				f2(float64(batchGet.Microseconds())/1000),
				f2(float64(seqGet.Microseconds())/1000),
				f2(float64(up.Microseconds())/1000),
				f2(float64(del.Microseconds())/1000))
		}
	}
	return t
}

// E14AblationSort quantifies what the entropy sort buys (Section 6's
// design rationale): M1 with PESort versus M1 with a Θ(b lg b) stable
// sort, on duplicate-heavy and duplicate-free workloads.
func E14AblationSort(s Scale) Table {
	t := Table{
		Title:  "E14: ablation — entropy sort vs comparison sort in M1 (Section 6)",
		Header: []string{"workload", "PESort ms", "std-sort ms", "speedup"},
		Note:   "paper: sorting must cost O(W_L) not b·lg b; reproduced if entropy sort wins on hot (duplicate-heavy) workloads",
	}
	rng := rand.New(rand.NewSource(9))
	hotKeys := workload.ZipfKeys(rng, s.N, 16, 1.1) // tiny key space: huge duplication
	uniKeys := workload.UniformKeys(rng, s.N, 1<<20)
	for _, tc := range []struct {
		name string
		keys []int
	}{{"hot-16-keys", hotKeys}, {"uniform", uniKeys}} {
		accs := workload.GetsOf(tc.keys)
		var times [2]time.Duration
		for i, strat := range []esort.PivotStrategy{esort.MedianOfMedians, esort.StdStable} {
			m := core.NewM1[int, int](core.Config{Pivot: strat})
			for _, k := range tc.keys[:min2(len(tc.keys), 1<<16)] {
				m.Insert(k, k)
			}
			times[i] = driveConcurrent(m, accs, s.MaxClients())
			m.Close()
		}
		t.AddRow(tc.name,
			f2(float64(times[0].Microseconds())/1000),
			f2(float64(times[1].Microseconds())/1000),
			f2(float64(times[1])/float64(times[0])))
	}
	return t
}

// E15AblationBatch sweeps the paper's p parameter, which fixes bunch size
// p² and M2's slab/filter geometry, quantifying the batch-size tradeoff
// discussed in Sections 6/7 ("too small loses parallelism, too large
// oversorts").
func E15AblationBatch(s Scale) Table {
	t := Table{
		Title:  "E15: ablation — batch-size parameter p (Sections 6/7)",
		Header: []string{"p (bunch=p²)", "M1 Mop/s", "M2 Mop/s"},
		Note:   "paper: batch size p² balances sorting cost vs parallelism; reproduced if throughput peaks at moderate p",
	}
	rng := rand.New(rand.NewSource(10))
	keys := workload.ZipfKeys(rng, s.N, 1<<16, 0.9)
	accs := workload.GetsOf(keys)
	for _, p := range []int{2, 4, 8, 16, 32} {
		m1 := core.NewM1[int, int](core.Config{P: p})
		for i := 0; i < 1<<16; i++ {
			m1.Insert(i, i)
		}
		el1 := driveConcurrent(m1, accs, s.MaxClients())
		m1.Close()
		m2 := core.NewM2[int, int](core.Config{P: p})
		for i := 0; i < 1<<16; i++ {
			m2.Insert(i, i)
		}
		el2 := driveConcurrent(m2, accs, s.MaxClients())
		m2.Close()
		t.AddRow(fmt.Sprintf("%d", p),
			f2(float64(len(accs))/el1.Seconds()/1e6),
			f2(float64(len(accs))/el2.Seconds()/1e6))
	}
	return t
}

func sortItems(items []twothree.Item[int, int]) {
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })
}

func sortInts(xs []int) { sort.Ints(xs) }

func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}

func min2(a, b int) int {
	if a < b {
		return a
	}
	return b
}
