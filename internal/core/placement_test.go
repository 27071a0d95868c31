package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/obs"
)

// placeOracle is M1's placement policy (Section 6.1 plus the eviction
// frontier) over plain slices: segs[k] holds S[k]'s keys, most recent first.
// It knows nothing of trees, scratch or running prefixes — every step
// recounts from the slices.
type placeOracle struct {
	segs    [][]string
	vals    map[string]string
	max     int64 // byte budget, 0 = none
	bytes   int64
	evicted []string
}

func oracleBytes(k, v string) int64 { return int64(len(k)+len(v)) + itemOverhead }

// holds reports whether seg holds key k: found in its key-map, which in M1
// every segment shares, and owned by its recency-map.
func holds[K cmp.Ordered, V any](seg *segment[K, V], k K) bool {
	lf, ok := seg.km.Get(k)
	return ok && seg.rec.Owns(lf)
}

// replay runs one key's operations in arrival order from the given state.
func replay(ops []Op[string, string], present bool, val string) (bool, string) {
	for _, op := range ops {
		switch op.Kind {
		case OpInsert:
			present, val = true, op.Val
		case OpDelete:
			present, val = false, ""
		}
	}
	return present, val
}

// restore refills S[0..k-1] from the segments behind them, or spills what
// they hold beyond capacity, one boundary at a time from k down.
func (o *placeOracle) restore(k int) {
	k = min(k, len(o.segs)-1)
	for i := k; i >= 1; i-- {
		prefix := 0
		for _, s := range o.segs[:i] {
			prefix += len(s)
		}
		want := capPrefix(i - 1)
		switch {
		case prefix > want:
			cut := len(o.segs[i-1]) - (prefix - want)
			o.segs[i] = append(slices.Clone(o.segs[i-1][cut:]), o.segs[i]...)
			o.segs[i-1] = o.segs[i-1][:cut]
		case prefix < want:
			x := min(want-prefix, len(o.segs[i]))
			o.segs[i-1] = append(o.segs[i-1], o.segs[i][:x]...)
			o.segs[i] = o.segs[i][x:]
		}
	}
}

func (o *placeOracle) trim() {
	for len(o.segs) > 0 && len(o.segs[len(o.segs)-1]) == 0 {
		o.segs = o.segs[:len(o.segs)-1]
	}
}

// apply runs one cut batch.
func (o *placeOracle) apply(ops []Op[string, string]) {
	byKey := map[string][]Op[string, string]{}
	for _, op := range ops {
		byKey[op.Key] = append(byKey[op.Key], op)
	}
	deleted := map[string]bool{} // found, and absent after its group: still travels
	for k := 0; k < len(o.segs) && len(byKey) > 0; k++ {
		var moved []string
		stay, copied := o.segs[k], false // stay is S[k] itself until a key leaves it
		for i, key := range o.segs[k] {
			g, ok := byKey[key]
			if !ok || deleted[key] {
				if copied {
					stay = append(stay, key)
				}
				continue
			}
			if !copied {
				stay = append(make([]string, 0, len(o.segs[k])), o.segs[k][:i]...)
				copied = true
			}
			old := o.vals[key]
			if present, v := replay(g, true, old); present {
				// Found in S[k] and still there after its group: to the
				// front of S[k-1], keeping the order it had among the found.
				moved = append(moved, key)
				o.vals[key] = v
				o.bytes += int64(len(v) - len(old))
				delete(byKey, key)
			} else {
				deleted[key] = true
				delete(o.vals, key)
				o.bytes -= oracleBytes(key, old)
			}
		}
		o.segs[k] = stay
		tgt := max(k-1, 0)
		o.segs[tgt] = append(moved, o.segs[tgt]...)
		o.restore(k)
	}
	// End of the structure: what is present after its group is brand new,
	// and enters at the front of the last segment in key order.
	var fresh []string
	for key, g := range byKey {
		if deleted[key] {
			continue
		}
		if present, v := replay(g, false, ""); present {
			fresh = append(fresh, key)
			o.vals[key] = v
			o.bytes += oracleBytes(key, v)
		}
	}
	sort.Strings(fresh)
	o.trim()
	if len(fresh) > 0 {
		if len(o.segs) == 0 {
			o.segs = append(o.segs, nil)
		}
		l := len(o.segs) - 1
		o.segs[l] = append(fresh, o.segs[l]...)
		for ; len(o.segs[l]) > capOf(l); l++ {
			o.segs = append(o.segs, slices.Clone(o.segs[l][capOf(l):]))
			o.segs[l] = o.segs[l][:capOf(l)]
		}
	}
	// Batch boundary: evict from the back of the last segment until within
	// budget, a chunk at a time (the hook sees a chunk in key order).
	for o.max > 0 && o.bytes > o.max && len(o.segs) > 0 {
		last := &o.segs[len(o.segs)-1]
		cut := len(*last) - min(evictChunk, len(*last))
		chunk := slices.Clone((*last)[cut:])
		sort.Strings(chunk)
		for _, key := range chunk {
			o.evicted = append(o.evicted, key)
			o.bytes -= oracleBytes(key, o.vals[key])
			delete(o.vals, key)
		}
		*last = (*last)[:cut]
		o.trim()
	}
}

// recencyKeys returns a segment's keys, most recent first.
func recencyKeys[K cmp.Ordered, V any](seg *segment[K, V]) []K {
	out := make([]K, 0, seg.size())
	for _, lf := range seg.rec.Flatten() {
		out = append(out, lf.Key)
	}
	return out
}

// TestPlacementMatchesOracle drives M1 from one goroutine with random batches
// of get/insert/delete and compares, after every batch, each segment's
// recency order, the accounted bytes and the eviction sequence with the
// oracle's. P = 16 makes a bunch 256 operations, so every Apply below is
// exactly one cut batch. The deep case first inserts 70,000 keys, 256 a
// batch, so that S[5] exists and shares S[4]'s key-map; its steps cost
// O(n) each in the oracle, so it takes fewer.
func TestPlacementMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keys     int
		maxItems int64 // budget in items of the longest value, 0 = none
		preload  int   // keys inserted first, in ascending batches of 256
		steps    int
	}{
		{"unbounded", 700, 0, 0, 400},
		{"budget", 4000, 1500, 0, 400},
		{"deep", 72000, 0, 70000, 150},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maxBytes := tc.maxItems * oracleBytes("k0000", "vvvvvvvvvvvv")
			m := NewM1[string, string](Config{P: 16, MaxBytes: maxBytes})
			defer m.Close()
			o := &placeOracle{vals: map[string]string{}, max: maxBytes}
			var got []string
			m.SetOnEvict(func(k, _ string) { got = append(got, k) })
			rng := rand.New(rand.NewSource(22))
			var res []Result[string]
			for i := 0; i < tc.preload; i += 256 {
				ops := make([]Op[string, string], 0, 256)
				for k := i; k < min(i+256, tc.preload); k++ {
					ops = append(ops, Op[string, string]{Kind: OpInsert, Key: fmt.Sprintf("k%04d", k), Val: "v"})
				}
				res = m.ApplyInto(ops, res)
				o.apply(ops)
			}
			if tc.preload > capPrefix(4) && len(m.slab.segs) != 6 {
				t.Fatalf("%d keys in %d segments, want 6", tc.preload, len(m.slab.segs))
			}
			for step := 0; step < tc.steps; step++ {
				ops := make([]Op[string, string], 1+rng.Intn(256))
				hot := rng.Intn(tc.keys) // a window of keys that repeat within the batch
				for i := range ops {
					k := rng.Intn(tc.keys)
					if rng.Intn(3) == 0 {
						k = (hot + rng.Intn(8)) % tc.keys
					}
					op := Op[string, string]{Kind: OpGet, Key: fmt.Sprintf("k%04d", k)}
					switch r := rng.Intn(10); {
					case r < 4:
						op.Kind, op.Val = OpInsert, "vvvvvvvvvvvv"[:rng.Intn(13)]
					case r < 5:
						op.Kind = OpDelete
					}
					ops[i] = op
				}
				res = m.ApplyInto(ops, res)
				m.Quiesce()
				o.apply(ops)

				if len(m.slab.segs) != len(o.segs) {
					t.Fatalf("step %d: %d segments, oracle has %d", step, len(m.slab.segs), len(o.segs))
				}
				for k, seg := range m.slab.segs {
					if have := recencyKeys(seg); !slices.Equal(have, o.segs[k]) {
						t.Fatalf("step %d: S[%d] recency order\n got  %v\n want %v", step, k, have, o.segs[k])
					}
				}
				if m.Bytes() != o.bytes {
					t.Fatalf("step %d: %d bytes accounted, oracle has %d", step, m.Bytes(), o.bytes)
				}
				if !slices.Equal(got, o.evicted) {
					t.Fatalf("step %d: eviction sequence differs from the oracle's", step)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tc.maxItems > 0 && len(got) == 0 {
				t.Fatal("the budget never evicted: the case tests nothing")
			}
		})
	}
}

// budgetM1 is an M1 whose budget is exactly n of the items freshOps inserts.
func budgetM1(n int64) *M1[string, string] {
	return NewM1[string, string](Config{P: 16, MaxBytes: n * oracleBytes(freshKey(0), "v")})
}

func freshKey(i int) string { return fmt.Sprintf("f%07d", i) }

// freshOps inserts the n keys from first on, none of them seen before.
func freshOps(first, n int) []Op[string, string] {
	ops := make([]Op[string, string], n)
	for i := range ops {
		ops[i] = Op[string, string]{Kind: OpInsert, Key: freshKey(first + i), Val: "v"}
	}
	return ops
}

// TestEvictionIsFIFOAmongUntouched: under a saturated budget, items that are
// inserted and never read again leave in the order they came (to the batch:
// a batch's items are equally old). The last segment is ordered by age from
// front to back after every batch, so the next victim is always its oldest
// item and a fresh one is never evicted ahead of an older one beside it.
// What fills S[0..l-1] on the way up — the first capPrefix(l-1) items — is
// outside the frontier until an access elsewhere displaces it; they are the
// test's only survivors.
func TestEvictionIsFIFOAmongUntouched(t *testing.T) {
	const budget = 2000
	m := budgetM1(budget)
	defer m.Close()
	batchOf := map[string]int{}
	lastOut := 0
	m.SetOnEvict(func(k, _ string) {
		if b := batchOf[k]; b < lastOut {
			t.Errorf("%s of batch %d evicted after an item of batch %d", k, b, lastOut)
		} else {
			lastOut = b
		}
		delete(batchOf, k)
	})
	rng := rand.New(rand.NewSource(5))
	for next, batch := 0, 1; next < 5*budget; batch++ {
		ops := freshOps(next, 1+rng.Intn(64))
		for _, op := range ops {
			batchOf[op.Key] = batch
		}
		next += len(ops)
		m.Apply(ops)
		m.Quiesce()
		last := recencyKeys(m.slab.segs[len(m.slab.segs)-1])
		if !slices.IsSortedFunc(last, func(a, b string) int { return batchOf[b] - batchOf[a] }) {
			t.Fatalf("batch %d: last segment is not in age order", batch)
		}
	}
	if m.Evicted() < 3*budget {
		t.Fatalf("only %d evictions: the budget was not saturated", m.Evicted())
	}
	l := len(m.slab.segs) - 1
	for k, seg := range m.slab.segs[:l] {
		for _, key := range recencyKeys(seg) {
			if b := batchOf[key]; b >= lastOut {
				t.Errorf("S[%d] holds %s of batch %d, younger than evicted batch %d", k, key, b, lastOut)
			}
		}
	}
}

// TestFreshBurstKeepsPromotedItems: items that have been read since they were
// inserted sit in S[0..l-1], and first-time inserts never enter those, so a
// burst of four budgets' worth of new keys evicts none of them.
func TestFreshBurstKeepsPromotedItems(t *testing.T) {
	const budget, hot = 2000, 100
	m := budgetM1(budget)
	defer m.Close()
	gets := make([]Op[string, string], hot)
	isHot := map[string]bool{}
	for i := range gets {
		gets[i] = Op[string, string]{Kind: OpGet, Key: freshKey(budget - 1 - 7*i)}
		isHot[gets[i].Key] = true
	}
	lost := 0
	m.SetOnEvict(func(k, _ string) {
		if isHot[k] {
			lost++
		}
	})
	for i := 0; i < budget; i += 100 {
		m.Apply(freshOps(i, 100))
	}
	m.Apply(gets)
	m.Apply(gets)
	m.Quiesce()
	l := len(m.slab.segs) - 1
	for _, op := range gets {
		if holds(m.slab.segs[l], op.Key) {
			t.Fatalf("%s is in the last segment after two reads", op.Key)
		}
	}
	for i := budget; i < 5*budget; i += 50 {
		m.Apply(freshOps(i, 50))
	}
	m.Quiesce()
	for _, r := range m.Apply(gets) {
		if !r.OK {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("a burst of first-time inserts evicted promoted items (%d evictions and misses, %d items)", lost, hot)
	}
	if m.Evicted() < 3*budget {
		t.Fatalf("only %d evictions: the burst did not saturate the budget", m.Evicted())
	}
}

// TestFreshKeyClimbsOneSegmentPerAccess: the first read after a fresh insert
// finds the key in the last segment, S[l], and each later one a segment
// higher — the O(log n) the paper charges the insert, paid by the reads.
// From S[5] the first read finds the key in the key-map S[5] shares with
// S[4], and the depth is still S[5]'s: the segment whose recency-map holds
// the key.
func TestFreshKeyClimbsOneSegmentPerAccess(t *testing.T) {
	for _, tc := range []struct{ items, last int }{{5000, 4}, {70000, 5}} {
		t.Run(fmt.Sprint(tc.items), func(t *testing.T) {
			eo := &obs.EngineObs{}
			m := NewM1[string, string](Config{P: 16, Obs: eo})
			defer m.Close()
			for i := 0; i < tc.items; i += 250 {
				m.Apply(freshOps(i, 250))
			}
			m.Insert("new", "v")
			m.Quiesce()
			if l := len(m.slab.segs) - 1; l != tc.last {
				t.Fatalf("%d items in %d segments, want %d", tc.items+1, l+1, tc.last+1)
			}
			for want := int64(tc.last); want >= -1; want-- {
				before := eo.Snapshot().Depth.Sum
				if _, ok := m.Get("new"); !ok {
					t.Fatal("fresh key not found")
				}
				if got := eo.Snapshot().Depth.Sum - before; got != max(want, 0) {
					t.Fatalf("read answered at depth %d, want %d", got, max(want, 0))
				}
			}
		})
	}
}
