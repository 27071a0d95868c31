package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/esort"
	"repro/internal/metrics"
	"repro/internal/splay"
	"repro/internal/workload"
)

// seqWorkloads are the access patterns swept by the work-bound
// experiments, from extreme temporal locality to none.
func seqWorkloads(rng *rand.Rand, n, universe int) map[string][]int {
	return map[string][]int{
		"recency-8":  workload.RecencyBoundedKeys(rng, n, universe, 8),
		"recency-64": workload.RecencyBoundedKeys(rng, n, universe, 64),
		"zipf-1.2":   workload.ZipfKeys(rng, n, universe, 1.2),
		"zipf-0.8":   workload.ZipfKeys(rng, n, universe, 0.8),
		"hotspot":    workload.HotspotKeys(rng, n, universe, 0.05, 0.95),
		"moving-hot": workload.MovingHotspotKeys(rng, n, universe, 64, 1000),
		"uniform":    workload.UniformKeys(rng, n, universe),
	}
}

var workloadOrder = []string{
	"recency-8", "recency-64", "zipf-1.2", "zipf-0.8", "hotspot", "moving-hot", "uniform",
}

// E1M0WorkBound validates Theorem 7: M0's total cost is O(W_L). The ratio
// column must be bounded by a constant across workloads and sizes.
func E1M0WorkBound(s Scale) Table {
	t := Table{
		Title:  "E1: M0 total work vs working-set bound (Theorem 7)",
		Header: []string{"workload", "ops", "measured work", "W_L", "ratio"},
		Note:   "paper: cost(M0) = O(W_L); reproduced if ratio is flat across rows",
	}
	rng := rand.New(rand.NewSource(1))
	universe := s.N / 4
	for _, name := range workloadOrder {
		keys := seqWorkloads(rng, s.N, universe)[name]
		accs := workload.InsertThenGets(keys)
		cnt := &metrics.Counter{}
		m := core.NewM0[int, int](cnt)
		for _, a := range accs {
			switch a.Kind {
			case workload.Insert:
				m.Insert(a.Key, a.Key)
			case workload.Get:
				m.Get(a.Key)
			case workload.Delete:
				m.Delete(a.Key)
			}
		}
		wl := workload.WSBound(accs)
		measured := float64(cnt.Total())
		t.AddRow(name, d(len(accs)), f1(measured), f1(wl), f2(measured/wl))
	}
	return t
}

// E2EntropySort validates Theorems 30/33: ESort and PESort run in
// O(n·H + n), beating Θ(n log n) comparison sorting on low-entropy inputs
// and matching it at full entropy.
func E2EntropySort(s Scale) Table {
	t := Table{
		Title: "E2: entropy sort vs comparison sort (Theorems 28/30/33)",
		Header: []string{"distinct u", "H(bits)", "PESort ms", "ESort ms", "std ms",
			"n·H+n /1e6", "n·lg n /1e6"},
		Note: "paper: entropy sorts cost Θ(n·H+n); reproduced if their time tracks the n·H column, not n·lg n",
	}
	rng := rand.New(rand.NewSource(2))
	n := s.N
	for _, u := range []int{2, 16, 256, 4096, 262144} {
		keys := workload.UniformKeys(rng, n, u)
		h := esort.Entropy(keys)

		start := time.Now()
		esort.PESort(keys, esort.MedianOfMedians)
		pesort := time.Since(start)

		start = time.Now()
		core.ESort(keys)
		es := time.Since(start)

		std := append([]int(nil), keys...)
		start = time.Now()
		sort.Ints(std)
		stdT := time.Since(start)

		t.AddRow(d(u), f2(h),
			f2(float64(pesort.Microseconds())/1000),
			f2(float64(es.Microseconds())/1000),
			f2(float64(stdT.Microseconds())/1000),
			f2((float64(n)*h+float64(n))/1e6),
			f2(float64(n)*math.Log2(float64(n))/1e6))
	}
	return t
}

// E3ParallelPivot validates Lemma 34: the deterministic pivot always lands
// in the middle two quartiles, in O(k) work.
func E3ParallelPivot(s Scale) Table {
	t := Table{
		Title:  "E3: parallel pivot quality (Lemma 34)",
		Header: []string{"input", "k", "pivot pct min", "pivot pct max", "ns/elem"},
		Note:   "paper: pivot within [25,75] percentile always; reproduced if min/max stay inside",
	}
	rng := rand.New(rand.NewSource(3))
	k := s.N
	inputs := map[string]func() []int{
		"random": func() []int { return workload.UniformKeys(rng, k, 1<<30) },
		"sorted": func() []int {
			ks := make([]int, k)
			for i := range ks {
				ks[i] = i
			}
			return ks
		},
		"reverse": func() []int {
			ks := make([]int, k)
			for i := range ks {
				ks[i] = k - i
			}
			return ks
		},
		"zipf": func() []int { return workload.ZipfKeys(rng, k, 100, 1.1) },
	}
	for _, name := range []string{"random", "sorted", "reverse", "zipf"} {
		keys := inputs[name]()
		idx := make([]int, len(keys))
		for i := range idx {
			idx[i] = i
		}
		lo, hi := 101.0, -1.0
		var elapsed time.Duration
		const trials = 5
		for trial := 0; trial < trials; trial++ {
			start := time.Now()
			p := esort.PPivot(keys, idx)
			elapsed += time.Since(start)
			below, atOrBelow := 0, 0
			for _, key := range keys {
				if key < p {
					below++
				}
				if key <= p {
					atOrBelow++
				}
			}
			pct := 100 * float64(below+atOrBelow) / 2 / float64(len(keys))
			lo = math.Min(lo, pct)
			hi = math.Max(hi, pct)
		}
		t.AddRow(name, d(k), f1(lo), f1(hi),
			f1(float64(elapsed.Nanoseconds())/float64(trials*k)))
	}
	return t
}

// E10RecencyCurve validates the working-set property itself (Lemma 6 /
// Theorem 7 corollary): cost of one access at recency r grows like
// 1 + log r and is flat in n; a static tree pays ~log n regardless.
func E10RecencyCurve(s Scale) Table {
	n := 1 << 16
	t := Table{
		Title:  fmt.Sprintf("E10: single-access cost vs recency r (n = %d)", n),
		Header: []string{"recency r", "1+lg r", "M0", "M1", "M2", "Iacono", "splay", "static lg n"},
		Note:   "paper: working-set maps pay O(1+lg r) worst-case; splay only amortized (cyclic pattern costs Θ(r)); M1 and M2 from one goroutine: each access is its own cut, M2 quiesced after each",
	}
	cnt0 := &metrics.Counter{}
	m0 := core.NewM0[int, int](cnt0)
	cnt1 := &metrics.Counter{}
	m1 := core.NewM1[int, int](core.Config{P: 2, Counter: cnt1})
	defer m1.Close()
	cnt2 := &metrics.Counter{}
	m2 := core.NewM2[int, int](core.Config{P: 2, Counter: cnt2})
	defer m2.Close()
	cntI := &metrics.Counter{}
	ia := core.NewIacono[int, int](cntI)
	cntS := &metrics.Counter{}
	sp := splay.New[int, int](cntS)
	for i := 0; i < n; i++ {
		m0.Insert(i, i)
		m1.Insert(i, i)
		m2.Insert(i, i)
		m2.Quiesce()
		ia.Insert(i, i)
		sp.Insert(i, i)
	}
	measure := func(get func(int), cnt *metrics.Counter, r int) float64 {
		const rounds = 4
		var total int64
		for round := 0; round < rounds; round++ {
			get(0)
			for i := 1; i < r; i++ {
				get(i)
			}
			before := cnt.Total()
			get(0)
			total += cnt.Total() - before
		}
		return float64(total) / rounds
	}
	for _, r := range []int{1, 4, 16, 64, 256, 1024, 4096, 16384} {
		c0 := measure(func(k int) { m0.Get(k) }, cnt0, r)
		c1 := measure(func(k int) { m1.Get(k) }, cnt1, r)
		c2 := measure(func(k int) { m2.Get(k); m2.Quiesce() }, cnt2, r)
		ci := measure(func(k int) { ia.Get(k) }, cntI, r)
		cs := measure(func(k int) { sp.Get(k) }, cntS, r)
		t.AddRow(d(r), f1(1+math.Log2(float64(r))), f1(c0), f1(c1), f1(c2), f1(ci), f1(cs),
			f1(math.Log2(float64(n))))
	}
	return t
}
