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

// TestNodeSizes pins the node shapes for the server's types (string keys
// and values): a field added to Node or inner costs every resident item. The
// item is one 64-byte leaf, the size class exactly, for both maps of its
// segment — value, key, the key-map's up-pointer, and the recency list's
// two links and packed tag and stamp — and the routing node is the 160-byte
// size class exactly, ten bytes per child slot.
func TestNodeSizes(t *testing.T) {
	if n := reflect.TypeFor[Node[string, string]]().Size(); n != 64 {
		t.Errorf("segment item is %d bytes, want 64", n)
	}
	if n := reflect.TypeFor[inner[string, string]]().Size(); n != 10*maxKids {
		t.Errorf("routing node is %d bytes, want %d", n, 10*maxKids)
	}
	if n := reflect.TypeFor[Node[int, int]]().Size(); n != 48 {
		t.Errorf("Node[int, int] is %d bytes, want 48", n)
	}
}

// TestValidateRejects breaks, one at a time, the invariants the validators
// are the oracle of in every model test below. A Tree: the strict minimum
// below the root and two at it, no child pointer past the count, exact
// cached size and maximum, parent pointers of routing nodes and leaves. A
// Seq: links that agree both ways and end at the back, the count, the tag,
// and stamps increasing from front to back within the range of the ends.
func TestValidateRejects(t *testing.T) {
	// maxKids+1 leaves: a root over two nodes, of minKids+1 and minKids.
	build := func() (*Tree[int, int], *inner[int, int]) {
		m := newTreeModel(t, false)
		m.insertLeaves(span(0, maxKids+1, 1))
		m.check()
		return m.tr, m.tr.root.node().kid(1).node()
	}
	for name, breakIt := range map[string]func(root, low *inner[int, int]){
		"thin":       func(_, low *inner[int, int]) { low.nc--; low.size--; low.child[low.nc] = nil; low.maxKey-- },
		"wide":       func(_, low *inner[int, int]) { low.nc = maxKids + 1 },
		"lone":       func(root, _ *inner[int, int]) { root.nc = 1 },
		"trailing":   func(_, low *inner[int, int]) { low.child[maxKids-1] = low.child[0] },
		"size":       func(_, low *inner[int, int]) { low.size++ },
		"rootsize":   func(root, _ *inner[int, int]) { root.size-- },
		"maxKey":     func(_, low *inner[int, int]) { low.maxKey++ },
		"parent":     func(root, low *inner[int, int]) { low.parent = low },
		"leafParent": func(root, low *inner[int, int]) { low.kid(0).leaf().up = root },
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

	for name, breakIt := range map[string]func(s *Seq[int, int], lv []*leaf){
		"prev":  func(_ *Seq[int, int], lv []*leaf) { lv[2].prev = lv[0] },
		"next":  func(_ *Seq[int, int], lv []*leaf) { lv[1].next = lv[3] },
		"cycle": func(_ *Seq[int, int], lv []*leaf) { lv[4].next = lv[0] },
		"len":   func(s *Seq[int, int], _ []*leaf) { s.n++ },
		"tail":  func(s *Seq[int, int], lv []*leaf) { s.tail = lv[3] },
		"tag":   func(_ *Seq[int, int], lv []*leaf) { lv[2].pos += 1 << stampBits },
		"order": func(_ *Seq[int, int], lv []*leaf) { lv[1].pos, lv[2].pos = lv[2].pos, lv[1].pos },
		"front": func(s *Seq[int, int], _ []*leaf) { s.front++ },
		"back":  func(s *Seq[int, int], _ []*leaf) { s.back-- },
	} {
		s, lv := NewSeq[int, int](0, nil), mint(span(0, 5, 1))
		s.PushBackLeaves(lv[2:])
		s.PushFrontLeaves(lv[:2])
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: the Seq before it is broken: %v", name, err)
		}
		breakIt(s, lv)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validate accepts the broken Seq", name)
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
//
// With seq set the model is a segment: the tree's leaves are at the same
// time those of a Seq, which every leaf enters (at either end, in turn) when
// it enters the tree and leaves, by direct pointer, when it leaves the tree;
// rec is the order the Seq must have them in. The tree's kernels then run
// over leaves that are linked into a list, and check validates both.
type treeModel struct {
	t      *testing.T
	tr     *Tree[int, int]
	keys   []int
	leafOf map[int]*leaf
	valOf  map[int]int
	next   int // payloads are distinct, so a missed overwrite shows
	seq    *Seq[int, int]
	rec    []*leaf
}

func newTreeModel(t *testing.T, withSeq bool) *treeModel {
	m := &treeModel{
		t:      t,
		tr:     NewPooled(nil, NewNodePool[int, int]()),
		leafOf: map[int]*leaf{},
		valOf:  map[int]int{},
	}
	if withSeq {
		m.seq = NewSeq[int, int](0, nil)
	}
	return m
}

func (m *treeModel) resync() {
	m.keys = m.keys[:0]
	for k := range m.leafOf {
		m.keys = append(m.keys, k)
	}
	sort.Ints(m.keys)
}

// enter pushes leaves new to the tree onto the Seq, at the front or the
// back in turn.
func (m *treeModel) enter(leaves []*leaf) {
	if m.seq == nil || len(leaves) == 0 {
		return
	}
	if m.next%2 == 0 {
		m.seq.PushFrontLeaves(leaves)
		m.rec = append(slices.Clone(leaves), m.rec...)
	} else {
		m.seq.PushBackLeaves(leaves)
		m.rec = append(m.rec, leaves...)
	}
}

// leave takes leaves the tree has dropped out of the Seq by direct pointer,
// which must hand them back in recency order.
func (m *treeModel) leave(leaves []*leaf) {
	m.t.Helper()
	if m.seq == nil || len(leaves) == 0 {
		return
	}
	if err := m.tr.Validate(); err != nil { // before the Seq loses what the tree has lost
		m.t.Fatal(err)
	}
	leaving := make(map[*leaf]bool, len(leaves))
	for _, lf := range leaves {
		leaving[lf] = true
	}
	var gone, rest []*leaf
	for _, lf := range m.rec {
		if leaving[lf] {
			gone = append(gone, lf)
		} else {
			rest = append(rest, lf)
		}
	}
	if got := m.seq.RemoveInto(leaves, make([]*leaf, len(leaves))); !slices.Equal(got, gone) {
		m.t.Fatalf("RemoveInto of %d leaves did not return them in recency order", len(leaves))
	}
	m.rec = rest
}

// upsert is BatchUpsert of the sorted keys, present or not.
func (m *treeModel) upsert(keys []int) {
	m.t.Helper()
	items := make([]Item[int, int], len(keys))
	for i, k := range keys {
		m.next++
		items[i] = Item[int, int]{Key: k, Payload: m.next}
	}
	var fresh []*leaf
	for i, lf := range m.tr.BatchUpsert(items) {
		k := keys[i]
		switch old := m.leafOf[k]; {
		case old == nil:
			fresh = append(fresh, lf)
		case old != lf:
			m.t.Fatalf("BatchUpsert replaced the leaf of present key %d", k)
		}
		m.leafOf[k], m.valOf[k] = lf, items[i].Payload
	}
	m.enter(fresh)
	m.resync()
}

// insertLeaves is BatchInsertLeaves of new leaves for the sorted, absent
// keys.
func (m *treeModel) insertLeaves(keys []int) {
	leaves := make([]*leaf, len(keys))
	for i, k := range keys {
		m.next++
		leaves[i] = NewLeaf(k, m.next)
		m.leafOf[k], m.valOf[k] = leaves[i], m.next
	}
	m.tr.BatchInsertLeaves(leaves)
	m.enter(leaves)
	m.resync()
}

// forget takes key k out of the model; got, the leaf the operation what
// removed for it, must be the key's, nil for an absent key.
func (m *treeModel) forget(what string, k int, got *leaf) {
	m.t.Helper()
	if got != m.leafOf[k] {
		m.t.Fatalf("%s removed %p for key %d, want %p", what, got, k, m.leafOf[k])
	}
	delete(m.leafOf, k)
	delete(m.valOf, k)
}

// forgetAll is forget for a batch, and the Seq's share of the removal.
func (m *treeModel) forgetAll(what string, keys []int, got []*leaf) {
	m.t.Helper()
	for i, lf := range got {
		m.forget(what, keys[i], lf)
	}
	m.leave(slices.DeleteFunc(got, func(lf *leaf) bool { return lf == nil }))
	m.resync()
}

// drop is BatchDelete of the sorted keys, present or not.
func (m *treeModel) drop(keys []int) {
	m.t.Helper()
	m.forgetAll("BatchDelete", keys, m.tr.BatchDelete(keys))
}

// dropLeaves is RemoveInto of the leaves at the sorted ranks, handed over
// in rank order or in reverse.
func (m *treeModel) dropLeaves(ranks []int, reverse bool) {
	m.t.Helper()
	keys := make([]int, len(ranks))
	leaves := make([]*leaf, len(ranks))
	for i, r := range ranks {
		keys[i] = m.keys[r]
		leaves[i] = m.leafOf[keys[i]]
	}
	if reverse {
		slices.Reverse(leaves)
	}
	m.forgetAll("RemoveInto", keys, m.tr.RemoveInto(leaves, make([]int, len(ranks)), make([]*leaf, len(ranks))))
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
	if m.seq == nil {
		return
	}
	if err := m.seq.Validate(); err != nil {
		m.t.Fatalf("the Seq over the tree's leaves: %v", err)
	}
	if !slices.Equal(m.seq.Flatten(), m.rec) || m.seq.Len() != len(flat) {
		m.t.Fatalf("the Seq holds %d leaves, not the tree's %d in the order they entered", m.seq.Len(), len(flat))
	}
	for _, lf := range flat {
		if !m.tr.Owns(lf) || !m.seq.Owns(lf) {
			m.t.Fatalf("the leaf of %d is not owned by both the tree and the Seq", lf.Key)
		}
	}
}

// TestModelTree drives a Tree with random batch and point operations
// against the model, validating the structure and every leaf's identity
// after each step. Every third step first shrinks the tree to 0, 1 or 2
// items: there the root is empty or itself a leaf, the boundary between
// the two node types. The model is a segment: a Seq holds the same leaves.
func TestModelTree(t *testing.T) {
	const space = 200
	rng := rand.New(rand.NewSource(1))
	m := newTreeModel(t, true)
	tr := m.tr
	for step := 0; step < 3000; step++ {
		if step%3 == 0 && len(m.keys) > 2 {
			perm := rng.Perm(len(m.keys))[rng.Intn(3):]
			sort.Ints(perm)
			switch rng.Intn(3) {
			case 0:
				m.dropLeaves(perm, false)
			case 1:
				m.dropLeaves(perm, true)
			default:
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
		case 4: // Rank and Flatten
			flat := tr.Flatten()
			for i, k := range m.keys {
				if r := rank(m.leafOf[k]); r != i {
					t.Fatalf("step %d: Rank(%d) = %d, want %d", step, k, r, i)
				}
				if flat[i] != m.leafOf[k] {
					t.Fatalf("step %d: Flatten()[%d] is not the leaf of %d", step, i, k)
				}
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
				if !existed {
					m.enter([]*leaf{lf})
				}
				m.resync()
			} else {
				lf, ok := tr.Delete(k)
				if ok != (lf != nil) {
					t.Fatalf("step %d: Delete(%d) = %p, %v", step, k, lf, ok)
				}
				m.forgetAll("Delete", []int{k}, []*leaf{lf})
			}
		case 6: // RangeInto
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
		m := newTreeModel(t, false)
		m.insertLeaves(span(0, step*n, step))
		m.check()
		return m
	}
	for _, n := range []int{2, a, b, b + 1, 2*b + a, a*b - 1, a*b + 1, b * b, b*b + 1, b*b*b + 1} {
		starts := uniq([]int{0, 1, a, b - 1, b, b + 1, 2 * b, a * b, b*b - 1, b * b, b*b + 1, n / 2, n - b - 1, n - b, n - a, n - 2, n - 1}, 0, n-1)
		for _, i := range starts {
			ends := uniq([]int{i + 1, i + 2, i + a - 1, i + a, i + a + 1, i + b - 1, i + b, i + b + 1, i + a*b, i + b*b - 1, i + b*b, i + b*b + 1, n - 1, n}, i+1, n)
			for _, j := range ends {
				for _, ranked := range []bool{false, true} {
					for _, complement := range []bool{false, true} {
						ranks := span(i, j, 1)
						if complement {
							ranks = append(span(0, i, 1), span(j, n, 1)...)
						}
						m := build(n)
						if ranked {
							m.dropLeaves(ranks, false)
						} else {
							keys := make([]int, len(ranks))
							for x, r := range ranks {
								keys[x] = step * r
							}
							m.drop(keys)
						}
						if len(m.keys) != n-len(ranks) {
							t.Fatalf("n=%d [%d,%d) rank=%v complement=%v: %d keys left", n, i, j, ranked, complement, len(m.keys))
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

// seqModel is two Seqs beside their reference, a slice of each one's
// leaves in recency order, and a Tree that holds the leaves of both by
// key, as the key-map M1's segments share does: whatever a Seq does to a
// leaf, the tree's routing nodes point at it and its up-pointer is live. A
// leaf enters the tree when it is made and leaves it in retire, once the
// Seqs have lost it for good, so a pop and a push of the same leaves, to
// the same Seq or the other, run with the tree untouched around them.
type seqModel struct {
	t     *testing.T
	s     [2]*Seq[int, int]
	tr    *Tree[int, int]
	model [2][]*leaf
	held  []*leaf // popped, and not yet pushed again or retired: the tree's alone
	next  int     // keys are distinct and increasing: a new batch is sorted
}

func newSeqModel(t *testing.T) *seqModel {
	return &seqModel{t: t, s: [2]*Seq[int, int]{NewSeq[int, int](0, nil), NewSeq[int, int](1, nil)}, tr: NewPooled(nil, NewNodePool[int, int]())}
}

// fresh makes n leaves, which the tree takes at once and the caller pushes.
func (m *seqModel) fresh(n int) []*leaf {
	leaves := mint(span(m.next, m.next+n, 1))
	m.next += n
	m.tr.BatchInsertLeaves(leaves)
	return leaves
}

func (m *seqModel) pushFront(i int, leaves []*leaf) {
	m.s[i].PushFrontLeaves(leaves)
	m.model[i], m.held = append(slices.Clone(leaves), m.model[i]...), nil
}

func (m *seqModel) pushBack(i int, leaves []*leaf) {
	m.s[i].PushBackLeaves(leaves)
	m.model[i], m.held = append(m.model[i], leaves...), nil
}

// popFront pops n leaves of Seq i, or all there are, and returns a copy of
// them.
func (m *seqModel) popFront(i, n int, scratch []*leaf) []*leaf {
	m.t.Helper()
	c := min(n, len(m.model[i]))
	got := m.s[i].PopFront(n, scratch)
	m.same("PopFront", got, m.model[i][:c])
	m.model[i], m.held = slices.Clone(m.model[i][c:]), slices.Clone(got)
	return m.held
}

func (m *seqModel) popBack(i, n int, scratch []*leaf) []*leaf {
	m.t.Helper()
	c := len(m.model[i]) - min(n, len(m.model[i]))
	got := m.s[i].PopBack(n, scratch)
	m.same("PopBack", got, m.model[i][c:])
	m.model[i], m.held = m.model[i][:c], slices.Clone(got)
	return m.held
}

// remove takes the leaves of Seq i at the sorted positions pick out of it,
// handing them over in the order rng shuffles them to, and retires them.
func (m *seqModel) remove(rng *rand.Rand, i int, pick []int) {
	m.t.Helper()
	var gone, rest []*leaf
	for j, lf := range m.model[i] {
		if _, found := slices.BinarySearch(pick, j); found {
			gone = append(gone, lf)
		} else {
			rest = append(rest, lf)
		}
	}
	shuffled := slices.Clone(gone)
	rng.Shuffle(len(shuffled), func(a, b int) { shuffled[a], shuffled[b] = shuffled[b], shuffled[a] })
	m.same("RemoveInto", m.s[i].RemoveInto(shuffled, make([]*leaf, len(gone))), gone)
	m.model[i] = rest
	m.retire(gone)
}

// retire takes leaves that are in no Seq any more out of the tree. The tree
// must be whole before — the Seqs ran over its leaves — and give back these
// very leaves.
func (m *seqModel) retire(leaves []*leaf) {
	m.t.Helper()
	if err := m.tr.Validate(); err != nil {
		m.t.Fatalf("the tree, after the Seqs lost %d of its leaves: %v", len(leaves), err)
	}
	byKey := slices.Clone(leaves)
	slices.SortFunc(byKey, func(a, b *leaf) int { return a.Key - b.Key })
	keys := make([]int, len(byKey))
	for i, lf := range byKey {
		keys[i] = lf.Key
	}
	m.same("BatchDelete from the tree", m.tr.BatchDelete(keys), byKey)
	m.held = nil
}

func (m *seqModel) same(what string, got, want []*leaf) {
	m.t.Helper()
	if !slices.Equal(got, want) {
		m.t.Fatalf("%s returned %d leaves that are not the model's %d", what, len(got), len(want))
	}
}

// check compares each Seq with its model — a walk from the front and one
// from the back, leaf by leaf, Len, stamps strictly increasing from front
// to back, each leaf owned by its Seq and not by the other, and a held leaf
// by neither — and the tree with the leaves of all three, in key order.
func (m *seqModel) check(what string) {
	m.t.Helper()
	for i, s := range m.s {
		if err := s.Validate(); err != nil {
			m.t.Fatalf("%s: Seq %d: %v", what, i, err)
		}
		var fwd, bwd []*leaf
		for lf := s.head; lf != nil; lf = lf.next {
			if len(fwd) > 0 && lf.pos&stampMask <= fwd[len(fwd)-1].pos&stampMask {
				m.t.Fatalf("%s: Seq %d: stamp of leaf %d is not above the one before", what, i, len(fwd))
			}
			fwd = append(fwd, lf)
		}
		for lf := s.tail; lf != nil; lf = lf.prev {
			bwd = append(bwd, lf)
		}
		slices.Reverse(bwd)
		m.same(fmt.Sprintf("%s: Seq %d from the front", what, i), fwd, m.model[i])
		m.same(fmt.Sprintf("%s: Seq %d from the back", what, i), bwd, m.model[i])
		m.same(fmt.Sprintf("%s: Seq %d's Flatten", what, i), s.Flatten(), m.model[i])
		if s.Len() != len(m.model[i]) {
			m.t.Fatalf("%s: Seq %d: Len %d, model %d", what, i, s.Len(), len(m.model[i]))
		}
		for _, lf := range m.model[i] {
			if !s.Owns(lf) || m.s[1-i].Owns(lf) {
				m.t.Fatalf("%s: leaf %d of Seq %d is owned by Seq 0: %v, Seq 1: %v", what, lf.Key, i, m.s[0].Owns(lf), m.s[1].Owns(lf))
			}
		}
	}
	for _, lf := range m.held {
		if m.s[0].Owns(lf) || m.s[1].Owns(lf) {
			m.t.Fatalf("%s: popped leaf %d is still owned", what, lf.Key)
		}
	}
	if err := m.tr.Validate(); err != nil {
		m.t.Fatalf("%s: the tree over the same leaves: %v", what, err)
	}
	byKey := slices.Concat(m.model[0], m.model[1], m.held)
	slices.SortFunc(byKey, func(a, b *leaf) int { return a.Key - b.Key })
	m.same(what+": the tree's Flatten", m.tr.Flatten(), byKey)
}

// TestModelSeq is TestModelTree for the recency sequence: pushes, pops,
// transfers between two sequences and removals by direct pointer against a
// slice of leaves in recency order for each, with the same share of steps
// on sequences of 0, 1 and 2 items, every leaf in a Tree as well for as
// long as it is in a Seq.
func TestModelSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := newSeqModel(t)
	var scratch []*leaf
	for step := 0; step < 3000; step++ {
		i := rng.Intn(2) // the Seq this step works on; 1-i is the other
		if step%3 == 0 && len(m.model[i]) > 2 {
			keep := rng.Intn(3)
			n := len(m.model[i])
			switch rng.Intn(4) {
			case 0:
				m.retire(m.popBack(i, n-keep, scratch))
			case 1:
				m.retire(m.popFront(i, n-keep, scratch))
			case 2: // a run: both ends, or everything, when keep is 0
				m.remove(rng, i, span(keep/2, n-(keep+1)/2, 1))
			default: // all but the middle: both ends at once
				mid := n / 2
				m.remove(rng, i, append(span(0, mid-keep/2, 1), span(mid+(keep+1)/2, n, 1)...))
			}
		}
		switch op := rng.Intn(7); op {
		case 0:
			m.pushFront(i, m.fresh(rng.Intn(20)))
		case 1:
			m.pushBack(i, m.fresh(rng.Intn(20)))
		case 2, 3: // pop, and sometimes push the same leaves back at the other end
			n := rng.Intn(len(m.model[i]) + 3) // may exceed the length: pops clamp
			again := rng.Intn(2) == 0
			switch popped := m.popFront(i, n, nil); {
			case op == 3:
				m.pushFront(i, popped) // undo, to pop at the back
				if popped = m.popBack(i, n, nil); again {
					m.pushFront(i, popped)
				} else {
					m.retire(popped)
				}
			case again:
				m.pushBack(i, popped)
			default:
				m.retire(popped)
			}
		case 4: // remove a random subset
			var pick []int
			for j := range m.model[i] {
				if rng.Intn(3) == 0 {
					pick = append(pick, j)
				}
			}
			m.remove(rng, i, pick)
		case 5: // a transfer, as restore makes: one Seq's back to the other's front, or its front to the other's back
			n := rng.Intn(len(m.model[i]) + 3)
			if rng.Intn(2) == 0 {
				m.pushFront(1-i, m.popBack(i, n, scratch))
			} else {
				m.pushBack(1-i, m.popFront(i, n, scratch))
			}
		case 6: // a leaf of the tree alone, or of neither, belongs to no sequence
			lone := m.fresh(1)
			if m.s[0].Owns(lone[0]) || m.s[1].Owns(lone[0]) || m.s[i].Owns(NewLeaf(-1, 0)) {
				t.Fatalf("step %d: a sequence owns a leaf it was not pushed", step)
			}
			m.retire(lone)
		}
		m.check(fmt.Sprintf("step %d", step))
	}
	for i := range m.s {
		m.retire(m.popFront(i, len(m.model[i]), nil))
	}

	// Every cut of a sequence of n from either end, put back: the ends of
	// the list, and each pop and push that empties or refills it, meet every
	// count from none to all.
	const n = 40
	m.pushBack(0, m.fresh(n))
	for i := 0; i <= n; i++ {
		front := m.popFront(0, i, scratch)
		m.check(fmt.Sprintf("PopFront(%d) of %d", i, n))
		m.pushFront(0, front)
		m.check(fmt.Sprintf("PushFrontLeaves of %d at %d", i, n))
		back := m.popBack(0, n-i, scratch)
		m.check(fmt.Sprintf("PopBack(%d) of %d", n-i, n))
		m.pushBack(0, back)
		m.check(fmt.Sprintf("PushBackLeaves of %d at %d", n-i, n))
	}
}

// TestForkedKernels runs every kernel on batches of several times
// batchGrain, so that the recursion forks at the upper levels of the tree
// and the goroutines repair neighbouring subtrees at once (CI runs this
// under -race at GOMAXPROCS 1, 2 and 4), and checks the result leaf by
// leaf. The models are segments: every leaf the tree takes a Seq takes too,
// and every batch the tree drops leaves the Seq by direct pointer, so the
// goroutines write up-pointers in leaves whose list links the Seq reads and
// writes next. The tree of 40·batchGrain leaves built in one batch is a
// root of four over full nodes; in 16way every batch leaves out the keys of one
// child of the first of them, so a node with maxKids children forks with
// one child that has no share.
func TestForkedKernels(t *testing.T) {
	const n = 40 * batchGrain
	for _, frac := range []int{2, 3, 40} { // a batch of n/frac spread over the tree
		t.Run(fmt.Sprintf("1in%d", frac), func(t *testing.T) {
			m := newTreeModel(t, true)
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
			m.dropLeaves(span(0, len(m.keys), frac), false)
			m.check()
			m.dropLeaves(span(1, len(m.keys), 2), true)
			m.check()
			m.drop(slices.Clone(m.keys[1:])) // all but the first, through the forks
			m.check()
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
				m.dropLeaves(ranks, false)
			},
		} {
			m := newTreeModel(t, true)
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
