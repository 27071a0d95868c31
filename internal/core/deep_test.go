package core

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/metrics"
)

// deepM1 is an M1 holding n keys k%08d of the even indices, preloaded in
// ascending batches of 128 at P = 2: S[0..4] full and the rest in S[5]
// once n passes capPrefix(4) = 65,814.
func deepM1(n int, cnt *metrics.Counter) *M1[string, string] {
	m := NewM1[string, string](Config{P: 2, Counter: cnt})
	ops := make([]Op[string, string], 0, 128)
	var res []Result[string]
	for i := 0; i < n; i++ {
		ops = append(ops, Op[string, string]{Kind: OpInsert, Key: fmt.Sprintf("k%08d", 2*i), Val: "v"})
		if len(ops) == cap(ops) || i == n-1 {
			res = m.ApplyInto(ops, res)
			ops = ops[:0]
		}
	}
	m.Quiesce()
	return m
}

// uniformGets returns batches of b GETs of keys drawn uniformly from the n
// keys deepM1 loads.
func uniformGets(n, b, batches int, seed int64) [][]Op[string, string] {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Op[string, string], batches)
	for j := range out {
		out[j] = make([]Op[string, string], b)
		for i := range out[j] {
			out[j][i] = Op[string, string]{Kind: OpGet, Key: fmt.Sprintf("k%08d", 2*rng.Intn(n))}
		}
	}
	return out
}

// TestM1DeepWorkPerOp bounds the structural work of a uniform GET in an M1
// of 2^18 keys, where three in four items are in S[5]: 4,096 GETs in
// batches of 16. Measured 48.0 with S[4] and S[5] sharing one key-map (one
// descent and a Seq.Owns tag compare find an S[5] item, and its moves to
// S[4] and back touch only recency-maps); 76.1 when the recency-maps were
// trees and ownership a walk to the root, 128.7 when each segment had its
// own key-map.
func TestM1DeepWorkPerOp(t *testing.T) {
	const n, b = 1 << 18, 16
	var cnt metrics.Counter
	m := deepM1(n, &cnt)
	defer m.Close()
	gets := uniformGets(n, b, 4096/b, 7)
	before := cnt.Total()
	var res []Result[string]
	for _, ops := range gets {
		res = m.ApplyInto(ops, res)
		for i, r := range res {
			if !r.OK {
				t.Fatalf("%s not found", ops[i].Key)
			}
		}
	}
	perOp := float64(cnt.Total()-before) / 4096
	t.Logf("%.1f work per uniform GET at n = %d, b = %d", perOp, n, b)
	const ceiling = 90
	if perOp > ceiling {
		t.Errorf("uniform GET: %.1f work per op, ceiling %d", perOp, ceiling)
	}
}

// TestM1S4HitWorkPerOp bounds the structural work of a GET that hits S[4]:
// 30,000 keys of an M1 of 2^17, read uniformly until they have left S[5]
// for S[0..4] (S[4] holds 2^16), in batches of 16. An S[4] hit searches
// the four search slices and makes one descent of the key-map every
// segment shares; its promotion to S[3], and restore's move of S[3]'s back
// to S[4], touch recency-maps and S[3]'s slice only. Measured 82.9, against
// 102.8 when S[0..3] had a key-map each and a move to or from S[3] deleted
// from one and inserted into another.
func TestM1S4HitWorkPerOp(t *testing.T) {
	if raceEnabled {
		// One goroutine and a count: the detector has nothing to check, and
		// its 600,000 warm-up GETs take half a minute under it.
		t.Skip("single-goroutine count ceiling; run without -race")
	}
	const n, hot, b = 1 << 17, 30_000, 16
	var cnt metrics.Counter
	m := deepM1(n, &cnt)
	defer m.Close()
	var res []Result[string]
	for round := range 20 {
		for _, ops := range uniformGets(hot, b, hot/b, int64(round)) {
			res = m.ApplyInto(ops, res)
		}
	}
	before := cnt.Total()
	for _, ops := range uniformGets(hot, b, 4096/b, 99) {
		res = m.ApplyInto(ops, res)
		for i, r := range res {
			if !r.OK {
				t.Fatalf("%s not found", ops[i].Key)
			}
		}
	}
	perOp := float64(cnt.Total()-before) / 4096
	t.Logf("%.1f work per S[4] hit at n = %d, b = %d", perOp, n, b)
	const ceiling = 90
	if perOp > ceiling {
		t.Errorf("S[4] hit: %.1f work per op, ceiling %d", perOp, ceiling)
	}
}

// BenchmarkM1DeepGet is a uniform GET in an M1 of 2^18 keys, three in four
// of them in S[5] (string keys, as the server has), in batches of b. Every
// batch is drawn afresh: a cycled set of batches would keep its few keys in
// S[4] and measure S[4] hits.
func BenchmarkM1DeepGet(b *testing.B) {
	const n = 1 << 18
	for _, size := range []int{16, 64} {
		b.Run(fmt.Sprintf("b=%d", size), func(b *testing.B) {
			m := deepM1(n, nil)
			defer m.Close()
			gets := uniformGets(n, size, b.N, 3)
			var res []Result[string]
			b.ReportAllocs()
			b.ResetTimer()
			for _, ops := range gets {
				res = m.ApplyInto(ops, res)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
		})
	}
}

// BenchmarkM1ZipfShardGet models one shard's engine traffic on the
// standing benchmark's zipf_read, in batches of 24: zipf(0.99) ranks over
// 2^18 keys, spread over the key space by the odd multiplier bench's key
// generator uses, of which the shard keeps the keys that hash to it (about
// 2^17, preloaded in ascending order). 85 % of the draws of the 6,000
// hottest ranks are left out, as the front cache's hits, and 5 % of the
// rest are SETs.
func BenchmarkM1ZipfShardGet(b *testing.B) {
	const universe, size, hotRanks = 1 << 18, 24, 6000
	inShard := func(i int) bool { return uint64(i)*0x9E3779B97F4A7C15>>63 == 0 }
	keys := make([]string, universe)
	m := NewM1[string, string](Config{P: 2})
	defer m.Close()
	var ops []Op[string, string]
	var res []Result[string]
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
		if inShard(i) {
			ops = append(ops, Op[string, string]{Kind: OpInsert, Key: keys[i], Val: "v"})
		}
		if len(ops) == 128 || i == universe-1 {
			res = m.ApplyInto(ops, res)
			ops = ops[:0]
		}
	}
	cdf := make([]float64, universe)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -0.99)
		cdf[i] = sum
	}
	rng := rand.New(rand.NewSource(5))
	// stream returns n operations, each a key index, -1-i for a SET of key i.
	stream := func(n int) []int32 {
		out := make([]int32, 0, n)
		for len(out) < n {
			rank := min(sort.SearchFloat64s(cdf, rng.Float64()*sum), universe-1)
			i := rank * 0x9E3779B1 & (universe - 1)
			if !inShard(i) || (rank < hotRanks && rng.Float64() < 0.85) {
				continue
			}
			if rng.Intn(20) == 0 {
				i = -1 - i
			}
			out = append(out, int32(i))
		}
		return out
	}
	run := func(s []int32) {
		ops = ops[:size]
		for ; len(s) >= size; s = s[size:] {
			for x, e := range s[:size] {
				if e < 0 {
					ops[x] = Op[string, string]{Kind: OpInsert, Key: keys[-1-e], Val: "v"}
				} else {
					ops[x] = Op[string, string]{Kind: OpGet, Key: keys[e]}
				}
			}
			res = m.ApplyInto(ops, res)
		}
	}
	run(stream(1 << 16))
	s := stream(b.N * size)
	b.ReportAllocs()
	b.ResetTimer()
	run(s)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/item")
}

// TestM1DeepKeyMapModel drives an M1 whose items reach S[5], so that S[4]
// and S[5] are both found through the key-map every segment shares, with
// random batches of get, insert and delete over hot and uniform keys, and
// checks every result, range pages, Items and the key-map edges against a
// model. It shrinks the map below S[5] and grows it back, then shrinks it
// below S[deepKM], where only the search slices are searched. Its budget
// variant evicts out of S[5], and its tiny one out of a last segment below
// S[deepKM], from a search slice: each eviction must take a resident key,
// once, and the accounted bytes must stay exact. P = 16 makes a cut batch
// 512 operations here, so every Apply is one.
func TestM1DeepKeyMapModel(t *testing.T) {
	const universe, preload = 90_000, 72_000
	for _, tc := range []struct {
		name   string
		budget int64 // in items, 0 = none
	}{
		{"unbounded", 0},
		{"budget", 70_000},
		{"tiny", 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			itemBytes := int64(8+8) + itemOverhead
			m := NewM1[int, int](Config{P: 16, MaxBytes: tc.budget * itemBytes})
			defer m.Close()
			model := map[int]int{}
			var evicted []int
			m.SetOnEvict(func(k, v int) { evicted = append(evicted, k) })
			rng := rand.New(rand.NewSource(36))
			var res []Result[int]
			apply := func(ops []Op[int, int]) {
				t.Helper()
				res = m.ApplyInto(ops, res)
				for i, op := range ops {
					old, ok := model[op.Key]
					if res[i].OK != ok || (ok && op.Kind != OpInsert && res[i].Val != old) {
						t.Fatalf("%v %d: got (%d, %v), model (%d, %v)", op.Kind, op.Key, res[i].Val, res[i].OK, old, ok)
					}
					switch op.Kind {
					case OpInsert:
						model[op.Key] = op.Val
					case OpDelete:
						delete(model, op.Key)
					}
				}
				for _, k := range evicted {
					if _, ok := model[k]; !ok {
						t.Fatalf("evicted %d, which is not resident (or was evicted twice)", k)
					}
					delete(model, k)
				}
				evicted = evicted[:0]
			}
			check := func(full bool) {
				t.Helper()
				m.Quiesce()
				if m.Len() != len(model) {
					t.Fatalf("%d items, model has %d", m.Len(), len(model))
				}
				if got, want := m.Bytes(), int64(len(model))*itemBytes; got != want {
					t.Fatalf("%d bytes accounted, model has %d", got, want)
				}
				lo := rng.Intn(universe)
				hi, limit := lo+rng.Intn(1000), rng.Intn(100)
				page, more := m.Range(lo, hi, limit, nil)
				var want []KV[int, int]
				for k := lo; k < hi; k++ {
					if v, ok := model[k]; ok {
						want = append(want, KV[int, int]{Key: k, Val: v})
					}
				}
				if limit > 0 && len(want) > limit {
					want = want[:limit]
					if !more {
						t.Fatalf("Range(%d, %d, %d) reports no more past a full page", lo, hi, limit)
					}
				}
				if !slices.Equal(page, want) {
					t.Fatalf("Range(%d, %d, %d) = %v, want %v", lo, hi, limit, page, want)
				}
				// The smallest and the largest key, each alone in a page
				// that runs from it to the end of the key space.
				for _, e := range []struct{ from, dir int }{{0, 1}, {universe - 1, -1}} {
					wk := e.from
					for _, ok := model[wk]; !ok; _, ok = model[wk] {
						wk += e.dir
					}
					lo, hi := 0, wk+1
					if e.dir < 0 {
						lo, hi = wk, universe
					}
					if page, _ := m.Range(lo, hi, 0, nil); !slices.Equal(page, []KV[int, int]{{Key: wk, Val: model[wk]}}) {
						t.Fatalf("Range(%d, %d) = %v, want only %d", lo, hi, page, wk)
					}
				}
				if !full {
					return
				}
				var items []int
				m.Items(func(k, v int) bool {
					if v != model[k] {
						t.Fatalf("Items: %d = %d, model %d", k, v, model[k])
					}
					items = append(items, k)
					return true
				})
				if keys := slices.Sorted(maps.Keys(model)); !slices.Equal(items, keys) {
					t.Fatalf("Items holds %d keys, model %d, or out of order", len(items), len(keys))
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
			segs := func(want int) {
				t.Helper()
				check(true)
				if len(m.slab.segs) != want {
					t.Fatalf("%d items in %d segments, want %d", m.Len(), len(m.slab.segs), want)
				}
			}
			// rounds runs mixed batches over keys below u; insert:delete of
			// 4:1 keeps about four in five of them resident.
			rounds := func(n, u int) {
				for r := 1; r <= n; r++ {
					ops := make([]Op[int, int], 1+rng.Intn(128))
					hot := rng.Intn(u)
					for i := range ops {
						k := rng.Intn(u)
						if rng.Intn(3) == 0 {
							k = (hot + rng.Intn(64)) % u
						}
						ops[i] = Op[int, int]{Kind: OpGet, Key: k}
						switch x := rng.Intn(10); {
						case x < 4:
							ops[i].Kind, ops[i].Val = OpInsert, rng.Int()
						case x < 5:
							ops[i].Kind = OpDelete
						}
					}
					apply(ops)
					check(r%150 == 0)
				}
			}
			for i := 0; i < preload; i += 256 {
				ops := make([]Op[int, int], 0, 256)
				for k := i; k < min(i+256, preload); k++ {
					ops = append(ops, Op[int, int]{Kind: OpInsert, Key: k * universe / preload, Val: k})
				}
				apply(ops)
			}
			if tc.budget > 0 && tc.budget < int64(capPrefix(deepKM-1)) {
				// All but the last few hundred keys were evicted.
				check(true)
				rounds(300, universe)
				check(true)
				if l := len(m.slab.segs) - 1; l >= deepKM || m.Evicted() == 0 {
					t.Fatalf("last segment S[%d] after %d evictions: nothing evicted from a search slice", l, m.Evicted())
				}
				return
			}
			segs(6)
			rounds(300, universe)
			segs(6)
			// shrinkTo deletes resident keys down to n.
			shrinkTo := func(n int) {
				for len(model) > n {
					ops := make([]Op[int, int], 0, 256)
					for k := range model {
						if len(ops) == cap(ops) || len(model)-len(ops) == n {
							break
						}
						ops = append(ops, Op[int, int]{Kind: OpDelete, Key: k})
					}
					apply(ops)
				}
			}
			// Shrink below S[5].
			shrinkTo(60_000)
			segs(5)
			rounds(150, universe)
			// Grow back past S[4]'s fill: 12,000 fresh keys.
			for k, n := 0, 0; n < preload-60_000; {
				ops := make([]Op[int, int], 0, 256)
				for ; len(ops) < cap(ops) && n+len(ops) < preload-60_000; k = (k + 7919) % universe {
					if _, ok := model[k]; !ok {
						ops = append(ops, Op[int, int]{Kind: OpInsert, Key: k, Val: k})
					}
				}
				apply(ops)
				n += len(ops)
			}
			segs(6)
			rounds(300, universe)
			segs(6)
			if tc.budget > 0 && m.Evicted() == 0 {
				t.Fatal("the budget never evicted: the case tests nothing")
			}
			// Shrink below S[deepKM], and keep there: 100 keys left and
			// at most 160 more, all under 160 of the universe's.
			shrinkTo(100)
			rounds(150, 160)
			check(true)
			if len(m.slab.segs) > deepKM {
				t.Fatalf("%d items in %d segments, want at most %d", m.Len(), len(m.slab.segs), deepKM)
			}
		})
	}
}

// TestEvictFromSearchSlice: eviction from a last segment below S[deepKM]
// takes the leaves out of its search slice as well as its recency-map and
// the key-map. A budget's eviction round pops evictChunk items, S[3]'s
// capacity, so it empties such a segment, which is then dropped with its
// slice; this test pops fewer, as a smaller round would.
func TestEvictFromSearchSlice(t *testing.T) {
	m := NewM1[int, int](Config{P: 2})
	defer m.Close()
	for i := range 100 {
		m.Insert(i, i)
	}
	m.Quiesce()
	if l := len(m.slab.segs) - 1; l >= deepKM {
		t.Fatalf("100 items reach S[%d]", l)
	}
	var evicted []int
	m.SetOnEvict(func(k, _ int) { evicted = append(evicted, k) })
	if n := m.slab.evictColdest(10); n != 10 || len(evicted) != 10 {
		t.Fatalf("evicted %d (hook saw %d), want 10", n, len(evicted))
	}
	if err := m.slab.checkInvariants(true); err != nil {
		t.Fatal(err)
	}
	for _, k := range evicted {
		if _, ok := m.slab.segs[0].km.Get(k); ok {
			t.Fatalf("evicted %d is still in the key-map", k)
		}
	}
}
