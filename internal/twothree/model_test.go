package twothree

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestNodeSizes pins the three node shapes for the server's types (string
// keys; a key-map payload of a string value plus the cross pointer): a
// field added to Node or inner costs every resident item.
func TestNodeSizes(t *testing.T) {
	type kmPayload struct {
		val string
		rec *SeqLeaf[string]
	}
	if n := reflect.TypeFor[Node[string, kmPayload]]().Size(); n > 48 {
		t.Errorf("key-map leaf is %d bytes, want <= 48", n)
	}
	if n := reflect.TypeFor[SeqLeaf[string]]().Size(); n > 24 {
		t.Errorf("recency leaf is %d bytes, want <= 24", n)
	}
	if n := reflect.TypeFor[inner[string, kmPayload]]().Size(); n > 64 {
		t.Errorf("routing node is %d bytes, want <= 64", n)
	}
}

// TestModelTree drives a Tree with random batch and point operations
// against a sorted slice, validating the structure and every leaf's
// identity after each step. Every third step first shrinks the tree to
// 0, 1 or 2 items: there the root is empty or itself a leaf, the boundary
// between the two node types.
func TestModelTree(t *testing.T) {
	const space = 200
	rng := rand.New(rand.NewSource(1))
	tr := NewPooled[int, int](nil, NewNodePool[int, int]())
	var model []int                     // present keys, sorted
	leafOf := map[int]*Node[int, int]{} // the leaf each present key must keep
	valOf := map[int]int{}

	drop := func(step int, keys []int) {
		got := tr.BatchDelete(keys)
		for i, k := range keys {
			if got[i] != leafOf[k] { // nil for an absent key
				t.Fatalf("step %d: BatchDelete(%d) returned %p, want %p", step, k, got[i], leafOf[k])
			}
			delete(leafOf, k)
			delete(valOf, k)
		}
		model = slices.DeleteFunc(model, func(k int) bool { return leafOf[k] == nil })
	}
	for step := 0; step < 3000; step++ {
		if step%3 == 0 && len(model) > 2 {
			perm := rng.Perm(len(model))[rng.Intn(3):]
			keys := make([]int, len(perm))
			for i, p := range perm {
				keys[i] = model[p]
			}
			sort.Ints(keys)
			drop(step, keys)
		}
		switch op := rng.Intn(7); op {
		case 0, 1: // BatchUpsert
			keys := sortedDistinct(rng, rng.Intn(41), space)
			items := make([]Item[int, int], len(keys))
			for i, k := range keys {
				items[i] = Item[int, int]{Key: k, Payload: rng.Int()}
			}
			for i, lf := range tr.BatchUpsert(items) {
				k := keys[i]
				if old := leafOf[k]; old != nil && old != lf {
					t.Fatalf("step %d: BatchUpsert replaced the leaf of present key %d", step, k)
				}
				leafOf[k], valOf[k] = lf, items[i].Payload
			}
			model = model[:0]
			for k := range leafOf {
				model = append(model, k)
			}
			sort.Ints(model)
		case 2: // BatchDelete
			drop(step, sortedDistinct(rng, rng.Intn(41), space))
		case 3: // BatchGet
			keys := sortedDistinct(rng, rng.Intn(41), space)
			for i, lf := range tr.BatchGet(keys) {
				if lf != leafOf[keys[i]] {
					t.Fatalf("step %d: BatchGet(%d) returned %p, want %p", step, keys[i], lf, leafOf[keys[i]])
				}
			}
		case 4: // Rank and Kth
			for i, k := range model {
				if r := Rank(leafOf[k]); r != i {
					t.Fatalf("step %d: Rank(%d) = %d, want %d", step, k, r, i)
				}
				if tr.Kth(i) != leafOf[k] {
					t.Fatalf("step %d: Kth(%d) is not the leaf of %d", step, i, k)
				}
			}
			if tr.Kth(-1) != nil || tr.Kth(len(model)) != nil {
				t.Fatalf("step %d: Kth out of range returned a leaf", step)
			}
		case 5: // point operations
			k := rng.Intn(space)
			if lf, ok := tr.Get(k); ok != (leafOf[k] != nil) || lf != leafOf[k] {
				t.Fatalf("step %d: Get(%d) = %p, %v", step, k, lf, ok)
			}
			if rng.Intn(2) == 0 {
				v := rng.Int()
				lf, existed := tr.Insert(k, v)
				if existed != (leafOf[k] != nil) || (existed && lf != leafOf[k]) {
					t.Fatalf("step %d: Insert(%d) = %p, %v", step, k, lf, existed)
				}
				if !existed {
					i, _ := slices.BinarySearch(model, k)
					model = slices.Insert(model, i, k)
				}
				leafOf[k], valOf[k] = lf, v
			} else {
				drop(step, []int{k})
			}
		case 6: // RangeInto, Min, Max
			lo, hi := rng.Intn(space), rng.Intn(space+1)
			var want []int
			for _, k := range model {
				if lo <= k && k < hi {
					want = append(want, k)
				}
			}
			got := tr.RangeInto(lo, hi, 0, nil)
			if len(got) != len(want) {
				t.Fatalf("step %d: RangeInto(%d, %d) returned %d leaves, want %d", step, lo, hi, len(got), len(want))
			}
			for i, lf := range got {
				if lf != leafOf[want[i]] {
					t.Fatalf("step %d: RangeInto(%d, %d)[%d] is not the leaf of %d", step, lo, hi, i, want[i])
				}
			}
			if len(model) == 0 {
				if tr.Min() != nil || tr.Max() != nil {
					t.Fatalf("step %d: Min/Max of an empty tree", step)
				}
			} else if tr.Min() != leafOf[model[0]] || tr.Max() != leafOf[model[len(model)-1]] {
				t.Fatalf("step %d: Min/Max wrong", step)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		flat := tr.Flatten()
		if len(flat) != len(model) || tr.Len() != len(model) {
			t.Fatalf("step %d: %d leaves, Len %d, model %d", step, len(flat), tr.Len(), len(model))
		}
		for i, lf := range flat {
			if k := model[i]; lf != leafOf[k] || lf.Key != k || lf.Payload != valOf[k] {
				t.Fatalf("step %d: leaf %d is {%d, %d}, want the leaf of %d", step, i, lf.Key, lf.Payload, k)
			}
		}
	}
}

// TestModelSeq is TestModelTree for the recency sequence: pushes, pops
// and reverse-indexed removals against a slice of leaves in recency
// order, with the same share of steps on sequences of 0, 1 and 2 items.
func TestModelSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewSeqPooled[int](nil, NewNodePool[int, struct{}]())
	var model []*SeqLeaf[int] // recency order
	next := 0                 // keys only label leaves here
	fresh := func() []int {
		keys := make([]int, rng.Intn(20))
		for i := range keys {
			keys[i] = next
			next++
		}
		return keys
	}
	same := func(step int, what string, got, want []*SeqLeaf[int]) {
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: %s returned %d leaves that are not the model's %d", step, what, len(got), len(want))
		}
	}
	var scratch []*SeqLeaf[int]
	for step := 0; step < 3000; step++ {
		if step%3 == 0 && len(model) > 2 {
			keep := rng.Intn(3)
			cut := len(model) - keep
			if rng.Intn(2) == 0 {
				scratch = s.PopBack(cut, scratch)
				same(step, "PopBack", scratch, model[keep:])
				model = model[:keep]
			} else {
				scratch = s.PopFront(cut, scratch)
				same(step, "PopFront", scratch, model[:cut])
				model = slices.Clone(model[cut:])
			}
		}
		switch op := rng.Intn(7); op {
		case 0:
			model = append(s.PushFront(fresh()), model...)
		case 1:
			model = append(model, s.PushBack(fresh())...)
		case 2, 3: // pop, and sometimes push the same leaves back at the other end
			n := rng.Intn(len(model) + 3) // may exceed the length: pops clamp
			c := min(n, len(model))
			var popped []*SeqLeaf[int]
			if op == 2 {
				popped = s.PopFront(n, nil)
				same(step, "PopFront", popped, model[:c])
				model = slices.Clone(model[c:])
				if rng.Intn(2) == 0 {
					s.PushBackLeaves(popped)
					model = append(model, popped...)
				}
			} else {
				popped = s.PopBack(n, nil)
				same(step, "PopBack", popped, model[len(model)-c:])
				model = model[:len(model)-c]
				if rng.Intn(2) == 0 {
					s.PushFrontLeaves(popped)
					model = append(popped, model...)
				}
			}
		case 4: // Remove a random subset, handed over in random order
			var pick, rest []*SeqLeaf[int]
			for _, lf := range model {
				if rng.Intn(3) == 0 {
					pick = append(pick, lf)
				} else {
					rest = append(rest, lf)
				}
			}
			shuffled := slices.Clone(pick)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			same(step, "Remove", s.Remove(shuffled), pick)
			model = rest
		case 5: // RankOf, Kth, Owns
			for i, lf := range model {
				if r := s.RankOf(lf); r != i {
					t.Fatalf("step %d: RankOf = %d, want %d", step, r, i)
				}
				if s.Kth(i) != lf {
					t.Fatalf("step %d: Kth(%d) is another leaf", step, i)
				}
				if !s.Owns(lf) {
					t.Fatalf("step %d: sequence disowns its leaf %d", step, i)
				}
			}
			if s.Kth(-1) != nil || s.Kth(len(model)) != nil {
				t.Fatalf("step %d: Kth out of range returned a leaf", step)
			}
		case 6: // a detached leaf belongs to no sequence
			if s.Owns(NewLeaf(-1, struct{}{})) {
				t.Fatalf("step %d: sequence owns a detached leaf", step)
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if s.Len() != len(model) {
			t.Fatalf("step %d: Len %d, model %d", step, s.Len(), len(model))
		}
		same(step, "Flatten", s.Flatten(), model)
	}
}
