package twothree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestNodeSizes pins the three node shapes for the server's types (string
// keys; a key-map payload of a string value plus the cross pointer): a
// field added to Node or inner costs every resident item. The routing node
// is the 160-byte size class exactly, ten bytes per child slot.
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
	if n := reflect.TypeFor[inner[string, kmPayload]]().Size(); n > 10*maxKids {
		t.Errorf("routing node is %d bytes, want <= %d", n, 10*maxKids)
	}
}

// TestValidateRejects breaks, one at a time, the invariants validate is the
// oracle of in every model test below: the strict minimum below the root
// and two at it, no child pointer past the count, exact cached size and
// maximum.
func TestValidateRejects(t *testing.T) {
	// maxKids+1 leaves: a root over two nodes, of minKids+1 and minKids.
	build := func() (*Tree[int, int], *inner[int, int]) {
		m := newTreeModel(t)
		m.insertLeaves(span(0, maxKids+1, 1))
		m.check()
		return m.tr, m.tr.root.node().kid(1).node()
	}
	for name, breakIt := range map[string]func(root, low *inner[int, int]){
		"thin":     func(_, low *inner[int, int]) { low.nc--; low.size--; low.child[low.nc] = nil; low.maxKey-- },
		"wide":     func(_, low *inner[int, int]) { low.nc = maxKids + 1 },
		"lone":     func(root, _ *inner[int, int]) { root.nc = 1 },
		"trailing": func(_, low *inner[int, int]) { low.child[maxKids-1] = low.child[0] },
		"size":     func(_, low *inner[int, int]) { low.size++ },
		"rootsize": func(root, _ *inner[int, int]) { root.size-- },
		"maxKey":   func(_, low *inner[int, int]) { low.maxKey++ },
		"parent":   func(root, low *inner[int, int]) { low.parent = low },
	} {
		tr, low := build()
		if low.nc != minKids {
			t.Fatalf("second node of %d leaves has %d children, want %d", maxKids+1, low.nc, minKids)
		}
		breakIt(tr.root.node(), low)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: validate accepts the broken tree", name)
		}
	}
}

// TestSizeCap checks that a subtree size that does not fit the node's 32
// bits panics where it would be stored, instead of wrapping.
func TestSizeCap(t *testing.T) {
	half := func() *inner[int, int] { return &inner[int, int]{h: 1, size: math.MaxInt32/2 + 1} }
	over := &inner[int, int]{h: 2, nc: 2}
	over.child[0], over.child[1] = innerRef(half()).p, innerRef(half()).p
	for name, grow := range map[string]func(){
		"refresh": func() { refresh(over) },
		"setSize": func() { half().setSize(math.MaxInt32 + 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a size of 2^31 did not panic", name)
				}
			}()
			grow()
		}()
	}
	n := half()
	n.setSize(math.MaxInt32)
	if n.size != math.MaxInt32 {
		t.Errorf("setSize(2^31-1) stored %d", n.size)
	}
}

// treeModel is a Tree beside its reference: the present keys in order, and
// for each the leaf it must keep for as long as it is present and the
// payload that leaf must hold. Every operation goes through both, and
// check compares them leaf by leaf.
type treeModel struct {
	t      *testing.T
	tr     *Tree[int, int]
	keys   []int
	leafOf map[int]*Node[int, int]
	valOf  map[int]int
	next   int // payloads are distinct, so a missed overwrite shows
}

func newTreeModel(t *testing.T) *treeModel {
	return &treeModel{
		t:      t,
		tr:     NewPooled[int, int](nil, NewNodePool[int, int]()),
		leafOf: map[int]*Node[int, int]{},
		valOf:  map[int]int{},
	}
}

func (m *treeModel) resync() {
	m.keys = m.keys[:0]
	for k := range m.leafOf {
		m.keys = append(m.keys, k)
	}
	sort.Ints(m.keys)
}

// upsert is BatchUpsert of the sorted keys, present or not.
func (m *treeModel) upsert(keys []int) {
	m.t.Helper()
	items := make([]Item[int, int], len(keys))
	for i, k := range keys {
		m.next++
		items[i] = Item[int, int]{Key: k, Payload: m.next}
	}
	for i, lf := range m.tr.BatchUpsert(items) {
		k := keys[i]
		if old := m.leafOf[k]; old != nil && old != lf {
			m.t.Fatalf("BatchUpsert replaced the leaf of present key %d", k)
		}
		m.leafOf[k], m.valOf[k] = lf, items[i].Payload
	}
	m.resync()
}

// insertLeaves is BatchInsertLeaves of new leaves for the sorted, absent
// keys.
func (m *treeModel) insertLeaves(keys []int) {
	leaves := make([]*Node[int, int], len(keys))
	for i, k := range keys {
		m.next++
		leaves[i] = NewLeaf(k, m.next)
		m.leafOf[k], m.valOf[k] = leaves[i], m.next
	}
	m.tr.BatchInsertLeaves(leaves)
	m.resync()
}

func (m *treeModel) forget(what string, k int, got *Node[int, int]) {
	m.t.Helper()
	if got != m.leafOf[k] { // nil for an absent key
		m.t.Fatalf("%s removed %p for key %d, want %p", what, got, k, m.leafOf[k])
	}
	delete(m.leafOf, k)
	delete(m.valOf, k)
}

// drop is BatchDelete of the sorted keys, present or not.
func (m *treeModel) drop(keys []int) {
	m.t.Helper()
	for i, lf := range m.tr.BatchDelete(keys) {
		m.forget("BatchDelete", keys[i], lf)
	}
	m.resync()
}

// dropRanks is BatchDeleteRanks of the sorted ranks.
func (m *treeModel) dropRanks(ranks []int) {
	m.t.Helper()
	keys := make([]int, len(ranks))
	for i, r := range ranks {
		keys[i] = m.keys[r]
	}
	for i, lf := range m.tr.BatchDeleteRanks(ranks) {
		m.forget("BatchDeleteRanks", keys[i], lf)
	}
	m.resync()
}

func (m *treeModel) check() {
	m.t.Helper()
	if err := m.tr.Validate(); err != nil {
		m.t.Fatal(err)
	}
	flat := m.tr.Flatten()
	if len(flat) != len(m.keys) || m.tr.Len() != len(m.keys) {
		m.t.Fatalf("%d leaves, Len %d, model %d", len(flat), m.tr.Len(), len(m.keys))
	}
	for i, lf := range flat {
		if k := m.keys[i]; lf != m.leafOf[k] || lf.Key != k || lf.Payload != m.valOf[k] {
			m.t.Fatalf("leaf %d is {%d, %d}, want the leaf of %d", i, lf.Key, lf.Payload, k)
		}
	}
	if !slices.Equal(m.tr.BatchGet(m.keys), flat) {
		m.t.Fatalf("BatchGet of every key did not return every leaf")
	}
}

// TestModelTree drives a Tree with random batch and point operations
// against the model, validating the structure and every leaf's identity
// after each step. Every third step first shrinks the tree to 0, 1 or 2
// items: there the root is empty or itself a leaf, the boundary between
// the two node types.
func TestModelTree(t *testing.T) {
	const space = 200
	rng := rand.New(rand.NewSource(1))
	m := newTreeModel(t)
	tr := m.tr
	for step := 0; step < 3000; step++ {
		if step%3 == 0 && len(m.keys) > 2 {
			perm := rng.Perm(len(m.keys))[rng.Intn(3):]
			sort.Ints(perm)
			if rng.Intn(2) == 0 {
				m.dropRanks(perm)
			} else {
				keys := make([]int, len(perm))
				for i, p := range perm {
					keys[i] = m.keys[p]
				}
				m.drop(keys)
			}
		}
		switch op := rng.Intn(8); op {
		case 0, 1:
			m.upsert(sortedDistinct(rng, rng.Intn(41), space))
		case 2:
			m.drop(sortedDistinct(rng, rng.Intn(41), space))
		case 3: // BatchGet
			keys := sortedDistinct(rng, rng.Intn(41), space)
			for i, lf := range tr.BatchGet(keys) {
				if lf != m.leafOf[keys[i]] {
					t.Fatalf("step %d: BatchGet(%d) returned %p, want %p", step, keys[i], lf, m.leafOf[keys[i]])
				}
			}
		case 4: // Rank and Kth
			for i, k := range m.keys {
				if r := Rank(m.leafOf[k]); r != i {
					t.Fatalf("step %d: Rank(%d) = %d, want %d", step, k, r, i)
				}
				if tr.Kth(i) != m.leafOf[k] {
					t.Fatalf("step %d: Kth(%d) is not the leaf of %d", step, i, k)
				}
			}
			if tr.Kth(-1) != nil || tr.Kth(len(m.keys)) != nil {
				t.Fatalf("step %d: Kth out of range returned a leaf", step)
			}
		case 5: // point operations
			k := rng.Intn(space)
			if lf, ok := tr.Get(k); ok != (m.leafOf[k] != nil) || lf != m.leafOf[k] {
				t.Fatalf("step %d: Get(%d) = %p, %v", step, k, lf, ok)
			}
			if rng.Intn(2) == 0 {
				m.next++
				lf, existed := tr.Insert(k, m.next)
				if existed != (m.leafOf[k] != nil) || (existed && lf != m.leafOf[k]) {
					t.Fatalf("step %d: Insert(%d) = %p, %v", step, k, lf, existed)
				}
				m.leafOf[k], m.valOf[k] = lf, m.next
			} else {
				lf, ok := tr.Delete(k)
				if ok != (lf != nil) {
					t.Fatalf("step %d: Delete(%d) = %p, %v", step, k, lf, ok)
				}
				m.forget("Delete", k, lf)
			}
			m.resync()
		case 6: // RangeInto, Min, Max
			lo, hi := rng.Intn(space), rng.Intn(space+1)
			var want []int
			for _, k := range m.keys {
				if lo <= k && k < hi {
					want = append(want, k)
				}
			}
			got := tr.RangeInto(lo, hi, 0, nil)
			if len(got) != len(want) {
				t.Fatalf("step %d: RangeInto(%d, %d) returned %d leaves, want %d", step, lo, hi, len(got), len(want))
			}
			for i, lf := range got {
				if lf != m.leafOf[want[i]] {
					t.Fatalf("step %d: RangeInto(%d, %d)[%d] is not the leaf of %d", step, lo, hi, i, want[i])
				}
			}
			if len(m.keys) == 0 {
				if tr.Min() != nil || tr.Max() != nil {
					t.Fatalf("step %d: Min/Max of an empty tree", step)
				}
			} else if tr.Min() != m.leafOf[m.keys[0]] || tr.Max() != m.leafOf[m.keys[len(m.keys)-1]] {
				t.Fatalf("step %d: Min/Max wrong", step)
			}
		case 7: // BatchInsertLeaves of absent keys
			keys := sortedDistinct(rng, rng.Intn(41), space)
			m.insertLeaves(slices.DeleteFunc(keys, func(k int) bool { return m.leafOf[k] != nil }))
		}
		m.check()
	}
}

// span returns lo, lo+step, ... below hi.
func span(lo, hi, step int) []int {
	var s []int
	for k := lo; k < hi; k += step {
		s = append(s, k)
	}
	return s
}

// uniq sorts s and drops repeats and values outside [lo, hi].
func uniq(s []int, lo, hi int) []int {
	slices.Sort(s)
	s = slices.Compact(s)
	return slices.DeleteFunc(s, func(x int) bool { return x < lo || x > hi })
}

// TestModelTreeShapes runs the batches whose repair is a case of its own
// against the model, on trees whose sizes are cut from the node's bounds
// a = minKids and b = maxKids. A tree built in one batch has full nodes
// with the remainder split, so b+1 leaves are a node of a+1 beside one of
// a, 2b+a are two full nodes and one of a, a·b±1, b², b²+1 have two
// levels of routing nodes and b³+1 three, the last two nodes of every
// level being a+1 and a. Deletions: runs of keys that start and end at
// node and subtree boundaries and one off them, and the complements of the
// runs, by key and by rank — that is a node left at a−1 beside a neighbour
// at a (the two merge: b+1 leaves less the first two) and beside a full
// one or one at a+1 (they share: 2b+a leaves less the last, b+1 less the
// last), a thin node first, in the middle and last under its parent, a
// whole subtree (its parent loses a child), a subtree but one leaf (what is
// left is shorter than its siblings by one level and by two, at the front,
// in the middle or at the back), everything but one leaf (the root
// collapses to a leaf), everything but the two ends, delete-all. Insertions:
// a batch of every size from 1 to a·b+3 in one gap between neighbours (it
// lands under one h == 1 node and splits it into many) at the ends and in
// the middle, and a batch interleaved with and larger than the tree.
func TestModelTreeShapes(t *testing.T) {
	const a, b = minKids, maxKids
	const step = 1000 // between resident keys: room for any batch in one gap
	build := func(n int) *treeModel {
		m := newTreeModel(t)
		m.insertLeaves(span(0, step*n, step))
		m.check()
		return m
	}
	for _, n := range []int{2, a, b, b + 1, 2*b + a, a*b - 1, a*b + 1, b * b, b*b + 1, b*b*b + 1} {
		starts := uniq([]int{0, 1, a, b - 1, b, b + 1, 2 * b, a * b, b*b - 1, b * b, b*b + 1, n / 2, n - b - 1, n - b, n - a, n - 2, n - 1}, 0, n-1)
		for _, i := range starts {
			ends := uniq([]int{i + 1, i + 2, i + a - 1, i + a, i + a + 1, i + b - 1, i + b, i + b + 1, i + a*b, i + b*b - 1, i + b*b, i + b*b + 1, n - 1, n}, i+1, n)
			for _, j := range ends {
				for _, byRank := range []bool{false, true} {
					for _, complement := range []bool{false, true} {
						ranks := span(i, j, 1)
						if complement {
							ranks = append(span(0, i, 1), span(j, n, 1)...)
						}
						m := build(n)
						if byRank {
							m.dropRanks(ranks)
						} else {
							keys := make([]int, len(ranks))
							for x, r := range ranks {
								keys[x] = step * r
							}
							m.drop(keys)
						}
						if len(m.keys) != n-len(ranks) {
							t.Fatalf("n=%d [%d,%d) rank=%v complement=%v: %d keys left", n, i, j, byRank, complement, len(m.keys))
						}
						m.check()
					}
				}
			}
		}
	}
	for _, n := range []int{0, 1, 2, a, b - 1, b, b + 1, 2 * b, a * b, b * b} {
		for _, gap := range uniq([]int{0, 1, a, b, n / 2, n - 1, n}, 0, n) {
			for _, size := range []int{1, 2, a - 1, a, b - 1, b, b + 1, 2*b + 1, a*b + 3} {
				m := build(n)
				lo := step*gap - step/2
				if size%2 == 0 {
					m.insertLeaves(span(lo, lo+size, 1))
				} else {
					m.upsert(span(lo, lo+size, 1))
				}
				m.check()
			}
		}
		m := build(n)
		m.upsert(span(-step, step*n+step, step/5)) // every resident key and four more in every gap
		m.check()
		m.insertLeaves(span(-step+1, step*n+step, step/5))
		m.check()
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
	// remove takes the model's leaves at the sorted positions pick out of
	// the sequence, handing them over in random order.
	remove := func(step int, pick []int) {
		var gone, rest []*SeqLeaf[int]
		for i, lf := range model {
			if _, found := slices.BinarySearch(pick, i); found {
				gone = append(gone, lf)
			} else {
				rest = append(rest, lf)
			}
		}
		shuffled := slices.Clone(gone)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		same(step, "RemoveInto", s.RemoveInto(shuffled, make([]int, len(gone)), make([]*SeqLeaf[int], len(gone))), gone)
		model = rest
	}
	var scratch []*SeqLeaf[int]
	for step := 0; step < 3000; step++ {
		if step%3 == 0 && len(model) > 2 {
			keep := rng.Intn(3)
			cut := len(model) - keep
			switch rng.Intn(4) {
			case 0:
				scratch = s.PopBack(cut, scratch)
				same(step, "PopBack", scratch, model[keep:])
				model = model[:keep]
			case 1:
				scratch = s.PopFront(cut, scratch)
				same(step, "PopFront", scratch, model[:cut])
				model = slices.Clone(model[cut:])
			case 2: // a run by rank: both ends, or everything, when keep is 0
				remove(step, span(keep/2, len(model)-(keep+1)/2, 1))
			default: // all but the middle: rank deletes at both ends at once
				mid := len(model) / 2
				remove(step, append(span(0, mid-keep/2, 1), span(mid+(keep+1)/2, len(model), 1)...))
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
		case 4: // remove a random subset
			var pick []int
			for i := range model {
				if rng.Intn(3) == 0 {
					pick = append(pick, i)
				}
			}
			remove(step, pick)
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
	s.PopFront(len(model), nil)

	// Ends of every shape. With a = minKids and b = maxKids, a run of 2..a-1
	// leaves is a tree whose root is thin at height 1, of 2b..(a-1)·b at
	// height 2, and of b+1 or b²+1 one whose root has two children: pushed at
	// either end of a sequence of one, two and three levels each is hung
	// under that spine — merged into the spine's node of its height, sharing
	// children with it, or as a child of the node above, splitting nodes on
	// the way up when they are full — or, higher than the sequence, takes the
	// sequence under its own spine. Then the three-level sequence is split at
	// every rank from both ends and put together again.
	const a, b = minKids, maxKids
	sizes := []int{1, 2, a - 1, a, b, b + 1, 2 * b, (a-1)*b - 1, (a - 1) * b, a * b, b * b, b*b + 1}
	verify := func(what string, n, k int) {
		t.Helper()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s %d at %d: %v", what, k, n, err)
		}
		same(n, what, s.Flatten(), model)
	}
	for _, n := range []int{0, 1, b, b + 1, b * b, b*b + 1, b*b*b + 1} {
		for _, k := range sizes {
			for _, front := range []bool{true, false} {
				model = s.PushBack(span(0, n, 1))
				// Full nodes first, then nodes at the minimum, down the spine.
				for _, pre := range []int{0, 1, a*b + a} {
					if pre < len(model) {
						if front {
							s.PopFront(pre, nil)
							model = model[pre:]
						} else {
							s.PopBack(pre, nil)
							model = model[:len(model)-pre]
						}
					}
					verify("pop before push of", n, k)
					if front {
						model = append(s.PushFront(span(0, k, 1)), model...)
					} else {
						model = append(model, s.PushBack(span(0, k, 1))...)
					}
					verify("push of", n, k)
				}
				s.PopBack(len(model), nil)
			}
		}
	}
	const n = b*b + a*b + 1 // three levels: a root of two, over a full node and one of a+1
	model = s.PushBack(span(0, n, 1))
	for i := 0; i <= n; i++ {
		scratch = s.PopFront(i, scratch)
		same(i, "PopFront", scratch, model[:i])
		if err := s.Validate(); err != nil {
			t.Fatalf("PopFront(%d) of %d: %v", i, n, err)
		}
		same(i, "what PopFront left", s.Flatten(), model[i:])
		s.PushFrontLeaves(scratch)
		verify("PushFrontLeaves of", n, i)
		scratch = s.PopBack(n-i, scratch)
		same(i, "PopBack", scratch, model[i:])
		if err := s.Validate(); err != nil {
			t.Fatalf("PopBack(%d) of %d: %v", n-i, n, err)
		}
		s.PushBackLeaves(scratch)
		verify("PushBackLeaves of", n, n-i)
	}
}

// TestForkedKernels runs every kernel on batches of several times
// batchGrain, so that the recursion forks at the upper levels of the tree
// and the goroutines repair neighbouring subtrees at once (CI runs this
// under -race at GOMAXPROCS 1, 2 and 4), and checks the result leaf by
// leaf. The tree of 40·batchGrain leaves built in one batch is a root of
// four over full nodes; in 16way every batch leaves out the keys of one
// child of the first of them, so a node with maxKids children forks with
// one child that has no share.
func TestForkedKernels(t *testing.T) {
	const n = 40 * batchGrain
	for _, frac := range []int{2, 3, 40} { // a batch of n/frac spread over the tree
		t.Run(fmt.Sprintf("1in%d", frac), func(t *testing.T) {
			m := newTreeModel(t)
			m.insertLeaves(span(0, 8*n, 8))
			m.check()
			m.insertLeaves(span(4, 8*n, 8*frac))
			m.check()
			m.upsert(span(0, 8*n, 2*frac)) // some present, some not
			m.check()
			m.insertLeaves(span(1, 8*n*3/5, 16)) // a forking node with a child that gets none
			m.check()
			m.drop(span(0, 8*n, frac+1)) // likewise
			m.check()
			m.dropRanks(span(0, len(m.keys), frac))
			m.check()
			m.drop(slices.Clone(m.keys[1:])) // all but the first, through the forks
			m.check()

			s := NewSeqPooled[int](nil, NewNodePool[int, struct{}]())
			leaves := s.PushBack(span(0, n, 1))
			var pick, rest []*SeqLeaf[int]
			for i, lf := range leaves {
				if i%frac == 0 {
					pick = append(pick, lf)
				} else {
					rest = append(rest, lf)
				}
			}
			got := s.RemoveInto(pick, make([]int, len(pick)), make([]*SeqLeaf[int], len(pick)))
			if !slices.Equal(got, pick) || !slices.Equal(s.Flatten(), rest) {
				t.Fatalf("RemoveInto of %d leaves in %d: wrong leaves removed or left", len(pick), n)
			}
			if err := s.Validate(); err != nil {
				t.Fatalf("after RemoveInto: %v", err)
			}
		})
	}
	t.Run("16way", func(t *testing.T) {
		const under = maxKids * maxKids // leaves under a full node of height 2
		// skip drops what routes to the sixth child of the root's first:
		// leaves 5·under..6·under-1, the keys above 8·(5·under-1) up to
		// 8·(6·under-1).
		skip := func(keys []int) []int {
			return slices.DeleteFunc(keys, func(k int) bool { return k > 8*(5*under-1) && k <= 8*(6*under-1) })
		}
		// Each kernel meets the tree as it was built.
		for _, run := range []func(m *treeModel){
			func(m *treeModel) {
				keys := skip(span(0, 8*n, 4)) // every other key is absent
				for i, lf := range m.tr.BatchGet(keys) {
					if lf != m.leafOf[keys[i]] {
						t.Fatalf("BatchGet(%d) returned %p, want %p", keys[i], lf, m.leafOf[keys[i]])
					}
				}
			},
			func(m *treeModel) { m.insertLeaves(skip(span(4, 8*n, 16))) },
			func(m *treeModel) { m.upsert(skip(span(0, 8*n, 4))) },
			func(m *treeModel) { m.drop(skip(span(0, 8*n, 12))) },
			func(m *treeModel) {
				ranks := skip(span(0, 8*n, 24)) // leaf r has key 8r
				for i := range ranks {
					ranks[i] /= 8
				}
				m.dropRanks(ranks)
			},
		} {
			m := newTreeModel(t)
			m.insertLeaves(span(0, 8*n, 8))
			top := m.tr.root.node().kid(0).node()
			if top.h != 3 || top.nc != maxKids || top.kid(5).size() != under {
				t.Fatalf("the root's first child has height %d and %d children, the sixth of them %d leaves: want 3, %d, %d",
					top.h, top.nc, top.kid(5).size(), maxKids, under)
			}
			run(m)
			m.check()
		}
	})
}
