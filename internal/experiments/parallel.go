package experiments

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/workload"
)

// cmap is the concurrent map surface the parallel experiments drive.
type cmap interface {
	Get(int) (int, bool)
	Insert(int, int) (int, bool)
	Delete(int) (int, bool)
	Len() int
}

// driveConcurrent splits the access sequence round-robin across clients
// and runs them concurrently (each client preserves its own order).
func driveConcurrent(m cmap, accs []workload.Access[int], clients int) time.Duration {
	if clients < 1 {
		clients = 1
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(accs); i += clients {
				a := accs[i]
				switch a.Kind {
				case workload.Insert:
					m.Insert(a.Key, a.Key)
				case workload.Get:
					m.Get(a.Key)
				case workload.Delete:
					m.Delete(a.Key)
				}
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

type drained interface {
	DrainLinearization() []core.Op[int, int]
}

// wlFromLinearization converts a recorded engine linearization into
// workload accesses for the W_L calculator.
func wlFromLinearization(ops []core.Op[int, int]) []workload.Access[int] {
	accs := make([]workload.Access[int], len(ops))
	for i, op := range ops {
		accs[i] = workload.Access[int]{Kind: workload.AccessKind(op.Kind), Key: op.Key}
	}
	return accs
}

// workBoundTable runs the work-bound experiment for one engine
// constructor: total measured work from an empty map over inserts+gets,
// against W_L of the engine's own recorded linearization.
func workBoundTable(title, note string, s Scale,
	mk func(cnt *metrics.Counter) cmap) Table {
	t := Table{
		Title:  title,
		Header: []string{"workload", "ops", "measured work", "W_L", "ratio"},
		Note:   note,
	}
	rng := rand.New(rand.NewSource(4))
	universe := s.N / 4
	for _, name := range workloadOrder {
		keys := seqWorkloads(rng, s.N, universe)[name]
		accs := workload.InsertThenGets(keys)
		cnt := &metrics.Counter{}
		m := mk(cnt)
		driveConcurrent(m, accs, 8)
		lin := m.(drained).DrainLinearization()
		wl := workload.WSBound(wlFromLinearization(lin))
		measured := float64(cnt.Total())
		if c, ok := m.(interface{ Close() }); ok {
			c.Close()
		}
		t.AddRow(name, d(len(accs)), f1(measured), f1(wl), f2(measured/wl))
	}
	return t
}

// E4M1WorkBound validates Theorem 12: M1's effective work is
// O(W_L + e_L log p) for its own batch-preserving linearization.
func E4M1WorkBound(s Scale) Table {
	return workBoundTable(
		"E4: M1 total work vs working-set bound (Theorem 12)",
		"paper: work(M1) = O(W_L + e_L·lg p); reproduced if ratio is flat across workloads",
		s,
		func(cnt *metrics.Counter) cmap {
			return core.NewM1[int, int](core.Config{Counter: cnt, RecordLinearization: true})
		})
}

// E6M2WorkBound validates Theorem 22: the same bound for the pipelined M2.
func E6M2WorkBound(s Scale) Table {
	return workBoundTable(
		"E6: M2 total work vs working-set bound (Theorem 22)",
		"paper: work(M2) = O(W_L + e_L·lg p); reproduced if ratio is flat across workloads",
		s,
		func(cnt *metrics.Counter) cmap {
			return core.NewM2[int, int](core.Config{Counter: cnt, RecordLinearization: true})
		})
}

// hotLatency measures the latency of repeatedly re-accessing one hot item
// while background clients keep the engine busy with cold churn: uniform
// deletes and re-inserts that travel the entire segment cascade, which is
// exactly the Ω(lg n)-span batch tail of Theorem 13. Returns the median
// and p95 of the hot-op latency.
func hotLatency(m cmap, universe, samples int) (p50, p95 time.Duration) {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 9)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := rng.Intn(universe)
				switch rng.Intn(3) {
				case 0:
					m.Delete(k)
				case 1:
					m.Insert(k, k)
				default:
					m.Get(k)
				}
			}
		}(c)
	}
	m.Insert(0, 0)
	lat := make([]time.Duration, samples)
	for i := range lat {
		start := time.Now()
		m.Get(0)
		lat[i] = time.Since(start)
	}
	close(stop)
	wg.Wait()
	// Sort latencies (insertion sort is fine for small sample counts).
	for i := 1; i < len(lat); i++ {
		for j := i; j > 0 && lat[j] < lat[j-1]; j-- {
			lat[j], lat[j-1] = lat[j-1], lat[j]
		}
	}
	return lat[len(lat)/2], lat[len(lat)*95/100]
}

// E5M1Latency measures M1's hot-operation latency as n grows (the span
// term d·((lg p)² + lg n) of Theorem 13: every batch costs Ω(lg n) span,
// so even recency-1 operations see it).
func E5M1Latency(s Scale) Table {
	return latencyTable(
		"E5: M1 hot-op latency vs map size (Theorem 13 span term)",
		"paper: every M1 batch has Ω(lg n) span, so hot-op latency grows with n",
		s,
		func() cmap { return core.NewM1[int, int](core.Config{}) })
}

// E7M2HotLatency is the pipelining headline (Theorem 25): M2's hot-op
// latency is O((lg p)² + lg r), independent of n.
func E7M2HotLatency(s Scale) Table {
	return latencyTable(
		"E7: M2 hot-op latency vs map size (Theorem 25 span term)",
		"paper: M2 hot ops finish in the first slab: latency ~flat in n (compare E5)",
		s,
		func() cmap { return core.NewM2[int, int](core.Config{}) })
}

func latencyTable(title, note string, s Scale, mk func() cmap) Table {
	t := Table{
		Title:  title,
		Header: []string{"map size n", "hot p50 µs", "hot p95 µs"},
		Note:   note,
	}
	for _, n := range s.Sizes {
		m := mk()
		for i := 0; i < n; i++ {
			m.Insert(i, i)
		}
		p50, p95 := hotLatency(m, n, 500)
		if c, ok := m.(interface{ Close() }); ok {
			c.Close()
		}
		t.AddRow(d(n), f1(float64(p50.Nanoseconds())/1000), f1(float64(p95.Nanoseconds())/1000))
	}
	return t
}

// E8VsBatchedTree reproduces the paper's analytical comparison (Sections
// 3/6): a batched non-adaptive tree pays Θ(lg n) per op; the working-set
// maps pay O(1 + lg r). Sweeping Zipf skew moves mean recency, so the
// working-set advantage should grow with skew and vanish at uniform.
func E8VsBatchedTree(s Scale) Table {
	t := Table{
		Title: "E8: work per op, working-set maps vs batched 2-3 tree (Sections 3/6)",
		Header: []string{"zipf s", "M1 work/op", "M2 work/op", "tree work/op",
			"M1 ms", "M2 ms", "tree ms"},
		Note: "paper: tree pays ~lg n always; working-set advantage grows with skew",
	}
	rng := rand.New(rand.NewSource(5))
	universe := s.N / 2
	for _, zs := range []float64{0.0, 0.6, 0.99, 1.2} {
		keys := workload.ZipfKeys(rng, s.N, universe, zs)
		accs := workload.InsertThenGets(keys)
		row := []string{fmt.Sprintf("%.2f", zs)}
		var times []string
		for _, mk := range []func(*metrics.Counter) cmap{
			func(c *metrics.Counter) cmap { return core.NewM1[int, int](core.Config{Counter: c}) },
			func(c *metrics.Counter) cmap { return core.NewM2[int, int](core.Config{Counter: c}) },
			func(c *metrics.Counter) cmap { return core.NewBatchedTree[int, int](0, c) },
		} {
			cnt := &metrics.Counter{}
			m := mk(cnt)
			el := driveConcurrent(m, accs, 8)
			if c, ok := m.(interface{ Close() }); ok {
				c.Close()
			}
			row = append(row, f1(float64(cnt.Total())/float64(len(accs))))
			times = append(times, f1(float64(el.Microseconds())/1000))
		}
		row = append(row, times...)
		t.AddRow(row...)
	}
	return t
}
