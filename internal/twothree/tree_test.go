package twothree

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// model is a reference implementation: a sorted slice of key/payload pairs.
type model struct {
	keys []int
	vals []string
}

func (m *model) find(k int) int {
	return sort.SearchInts(m.keys, k)
}

func (m *model) insert(k int, v string) bool {
	i := m.find(k)
	if i < len(m.keys) && m.keys[i] == k {
		m.vals[i] = v
		return true
	}
	m.keys = append(m.keys, 0)
	m.vals = append(m.vals, "")
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.vals[i+1:], m.vals[i:])
	m.keys[i], m.vals[i] = k, v
	return false
}

func (m *model) delete(k int) (string, bool) {
	i := m.find(k)
	if i >= len(m.keys) || m.keys[i] != k {
		return "", false
	}
	v := m.vals[i]
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
	return v, true
}

func (m *model) get(k int) (string, bool) {
	i := m.find(k)
	if i < len(m.keys) && m.keys[i] == k {
		return m.vals[i], true
	}
	return "", false
}

func checkAgainstModel(t *testing.T, tr *Tree[int, string], m *model) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("invalid tree: %v", err)
	}
	if tr.Len() != len(m.keys) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(m.keys))
	}
	leaves := tr.Flatten()
	for i, lf := range leaves {
		if lf.Key != m.keys[i] || lf.Payload != m.vals[i] {
			t.Fatalf("leaf %d = (%d,%q), want (%d,%q)", i, lf.Key, lf.Payload, m.keys[i], m.vals[i])
		}
		if got := rank(lf); got != i {
			t.Fatalf("Rank(leaf %d) = %d", i, got)
		}
		if got := tr.Kth(i); got != lf {
			t.Fatalf("Kth(%d) wrong leaf", i)
		}
	}
}

func TestSequentialOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New[int, string](nil)
	m := &model{}
	for step := 0; step < 4000; step++ {
		k := rng.Intn(300)
		switch rng.Intn(3) {
		case 0:
			v := string(rune('a' + k%26))
			leaf, existed := tr.Insert(k, v)
			wantExisted := m.insert(k, v)
			if existed != wantExisted {
				t.Fatalf("step %d: Insert(%d) existed=%v want %v", step, k, existed, wantExisted)
			}
			if leaf.Key != k || leaf.Payload != v {
				t.Fatalf("step %d: Insert leaf mismatch", step)
			}
		case 1:
			leaf, ok := tr.Delete(k)
			wantV, wantOK := m.delete(k)
			if ok != wantOK {
				t.Fatalf("step %d: Delete(%d) ok=%v want %v", step, k, ok, wantOK)
			}
			if ok && leaf.Payload != wantV {
				t.Fatalf("step %d: Delete payload %q want %q", step, leaf.Payload, wantV)
			}
		default:
			leaf, ok := tr.Get(k)
			wantV, wantOK := m.get(k)
			if ok != wantOK {
				t.Fatalf("step %d: Get(%d) ok=%v want %v", step, k, ok, wantOK)
			}
			if ok && leaf.Payload != wantV {
				t.Fatalf("step %d: Get payload mismatch", step)
			}
		}
		if step%257 == 0 {
			checkAgainstModel(t, tr, m)
		}
	}
	checkAgainstModel(t, tr, m)
}

func TestMinMax(t *testing.T) {
	tr := New[int, string](nil)
	if tr.Min() != nil || tr.Max() != nil {
		t.Fatal("empty tree Min/Max should be nil")
	}
	for _, k := range []int{5, 3, 9, 1, 7} {
		tr.Insert(k, "")
	}
	if tr.Min().Key != 1 {
		t.Fatalf("Min = %d", tr.Min().Key)
	}
	if tr.Max().Key != 9 {
		t.Fatalf("Max = %d", tr.Max().Key)
	}
}

func sortedDistinct(rng *rand.Rand, n, space int) []int {
	seen := map[int]bool{}
	for len(seen) < n {
		seen[rng.Intn(space)] = true
	}
	out := make([]int, 0, n)
	for k := range seen {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func TestBatchUpsertGetDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		tr := New[int, string](nil)
		m := &model{}
		// Seed with random sequential inserts.
		for i := 0; i < rng.Intn(500); i++ {
			k := rng.Intn(2000)
			v := "s"
			tr.Insert(k, v)
			m.insert(k, v)
		}
		for round := 0; round < 4; round++ {
			b := rng.Intn(700) + 1
			keys := sortedDistinct(rng, b, 2000)
			items := make([]Item[int, string], b)
			for i, k := range keys {
				items[i] = Item[int, string]{Key: k, Payload: "b"}
			}
			leaves := tr.BatchUpsert(items)
			for i, k := range keys {
				m.insert(k, "b")
				if leaves[i] == nil || leaves[i].Key != k || leaves[i].Payload != "b" {
					t.Fatalf("BatchUpsert leaf %d wrong", i)
				}
			}
			checkAgainstModel(t, tr, m)

			// BatchGet over a mix of present and absent keys.
			qkeys := sortedDistinct(rng, rng.Intn(400)+1, 2500)
			got := tr.BatchGet(qkeys)
			for i, k := range qkeys {
				wantV, wantOK := m.get(k)
				if (got[i] != nil) != wantOK {
					t.Fatalf("BatchGet(%d): present=%v want %v", k, got[i] != nil, wantOK)
				}
				if wantOK && got[i].Payload != wantV {
					t.Fatalf("BatchGet(%d): payload mismatch", k)
				}
			}

			// BatchDelete over a mix of present and absent keys.
			dkeys := sortedDistinct(rng, rng.Intn(400)+1, 2500)
			removed := tr.BatchDelete(dkeys)
			for i, k := range dkeys {
				wantV, wantOK := m.delete(k)
				if (removed[i] != nil) != wantOK {
					t.Fatalf("BatchDelete(%d): removed=%v want %v", k, removed[i] != nil, wantOK)
				}
				if wantOK && removed[i].Payload != wantV {
					t.Fatalf("BatchDelete(%d): payload mismatch", k)
				}
			}
			checkAgainstModel(t, tr, m)
		}
	}
}

func TestBatchInsertLeavesPreservesIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := New[int, string](nil)
	keys := sortedDistinct(rng, 500, 10000)
	leaves := make([]*Node[int, string], len(keys))
	for i, k := range keys {
		leaves[i] = NewLeaf(k, "x")
	}
	tr.BatchInsertLeaves(leaves)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, ok := tr.Get(k)
		if !ok || got != leaves[i] {
			t.Fatalf("leaf identity lost for key %d", k)
		}
	}
	// Insert a second disjoint set and re-check the first.
	var more []*Node[int, string]
	for _, k := range sortedDistinct(rng, 300, 10000) {
		if _, ok := tr.Get(k); !ok {
			more = append(more, NewLeaf(k, "y"))
		}
	}
	tr.BatchInsertLeaves(more)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		got, ok := tr.Get(k)
		if !ok || got != leaves[i] {
			t.Fatalf("leaf identity lost for key %d after second batch", k)
		}
	}
}

func TestBatchDeleteRanks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(800) + 1
		tr := New[int, int](nil)
		for i := 0; i < n; i++ {
			tr.Insert(i, i*10)
		}
		b := rng.Intn(n) + 1
		ranks := sortedDistinct(rng, b, n)
		removed := tr.BatchDeleteRanks(ranks)
		for i, r := range ranks {
			if removed[i] == nil || removed[i].Key != r {
				t.Fatalf("removed[%d] = %v, want key %d", i, removed[i], r)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.Len() != n-b {
			t.Fatalf("Len = %d, want %d", tr.Len(), n-b)
		}
		// Remaining keys are exactly those not deleted.
		del := map[int]bool{}
		for _, r := range ranks {
			del[r] = true
		}
		for _, lf := range tr.Flatten() {
			if del[lf.Key] {
				t.Fatalf("key %d should have been deleted", lf.Key)
			}
		}
	}
}

// TestQuickJoin checks join, which the deleter uses to put a short subtree
// under its neighbour's spine, on every pair of trees of up to 1000 leaves
// each, every key of the first below every key of the second: the result
// is one valid tree holding both, and the leaves keep their identity.
func TestQuickJoin(t *testing.T) {
	pool := NewNodePool[int, int]()
	f := func(n uint16, at uint16) bool {
		size := int(n%1000) + 1
		cut := int(at) % (size + 1)
		leaves := mint(span(0, size, 1))
		l, r := NewPooled[int, int](nil, pool), NewPooled[int, int](nil, pool)
		l.BatchInsertLeaves(leaves[:cut])
		r.BatchInsertLeaves(leaves[cut:])
		back := join(pool, l.root, r.root)
		if back.size() != size || validate(back) != nil {
			return false
		}
		return slices.Equal(appendLeaves(back, nil), leaves)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestRangeInto checks the bounded range collector against the model:
// half-open bounds, limit truncation, pruning correctness across random
// tree shapes.
func TestRangeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		tr := New[int, string](nil)
		var keys []int
		n := rng.Intn(200)
		for i := 0; i < n; i++ {
			k := rng.Intn(500)
			if _, existed := tr.Insert(k, "v"); !existed {
				keys = append(keys, k)
			}
		}
		sort.Ints(keys)
		for q := 0; q < 20; q++ {
			lo := rng.Intn(520) - 10
			hi := lo + rng.Intn(200) - 10
			limit := rng.Intn(12) // 0 = unbounded
			var want []int
			for _, k := range keys {
				if k >= lo && k < hi {
					want = append(want, k)
				}
			}
			if limit > 0 && len(want) > limit {
				want = want[:limit]
			}
			out := tr.RangeInto(lo, hi, limit, nil)
			if len(out) != len(want) {
				t.Fatalf("RangeInto(%d,%d,%d) returned %d leaves, want %d", lo, hi, limit, len(out), len(want))
			}
			for i, lf := range out {
				if lf.Key != want[i] {
					t.Fatalf("RangeInto(%d,%d,%d)[%d] = %d, want %d", lo, hi, limit, i, lf.Key, want[i])
				}
			}
		}
	}
	// Appending semantics: limit is relative to what RangeInto appends,
	// not the slice's prior length.
	tr := New[int, string](nil)
	for i := 0; i < 10; i++ {
		tr.Insert(i, "v")
	}
	pre := tr.RangeInto(0, 3, 0, nil)
	out := tr.RangeInto(5, 100, 2, pre)
	if len(out) != 5 || out[3].Key != 5 || out[4].Key != 6 {
		t.Fatalf("appending RangeInto = %v", out)
	}
}

func TestBatchInsertLeavesPresentKeyPanics(t *testing.T) {
	tr := New[int, string](nil)
	tr.BatchInsertLeaves([]*Node[int, string]{NewLeaf(1, "a"), NewLeaf(2, "b"), NewLeaf(3, "c")})
	defer func() {
		if recover() == nil {
			t.Fatal("inserting a leaf for a present key did not panic")
		}
	}()
	tr.BatchInsertLeaves([]*Node[int, string]{NewLeaf(0, "x"), NewLeaf(2, "y")})
}
