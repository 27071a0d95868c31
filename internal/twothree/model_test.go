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
// item is one 48-byte leaf for both trees of its segment — value, key and an
// up-pointer for each — and the routing node is the 160-byte size class
// exactly, ten bytes per child slot. The second up-pointer is there whether
// a second tree uses it or not: a plain Node[int, int] is 32 bytes, not 24.
func TestNodeSizes(t *testing.T) {
	if n := reflect.TypeFor[Node[string, string]]().Size(); n != 48 {
		t.Errorf("segment item is %d bytes, want 48", n)
	}
	if n := reflect.TypeFor[inner[string, string]]().Size(); n != 10*maxKids {
		t.Errorf("routing node is %d bytes, want %d", n, 10*maxKids)
	}
	if n := reflect.TypeFor[Node[int, int]]().Size(); n != 32 {
		t.Errorf("Node[int, int] is %d bytes, want 32", n)
	}
}

// TestValidateRejects breaks, one at a time, the invariants validate is the
// oracle of in every model test below: the strict minimum below the root
// and two at it, no child pointer past the count, exact cached size and
// maximum, one axis, parent pointers — a leaf's on the tree's own axis. A
// stale pointer on the other axis is not the tree's business: the same
// leaves validate as a Tree whatever their up[byRank] and as a Seq whatever
// their up[byKey].
func TestValidateRejects(t *testing.T) {
	// maxKids+1 leaves: a root over two nodes, of minKids+1 and minKids.
	build := func() (*Tree[int, int], *inner[int, int]) {
		m := newTreeModel(t, false)
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
		"axis":     func(_, low *inner[int, int]) { low.ax = byRank },
		"ownAxis":  func(root, low *inner[int, int]) { low.kid(0).leaf().up[byKey] = root },
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

	tr, low := build()
	leaves := tr.Flatten()
	for _, lf := range leaves {
		lf.up[byRank] = low
	}
	if err := tr.Validate(); err != nil {
		t.Errorf("stale up[byRank]: the Tree does not validate: %v", err)
	}
	s := NewSeq[int, int](nil)
	s.PushBackLeaves(leaves)
	for _, lf := range leaves {
		lf.up[byKey] = low
	}
	if err := s.Validate(); err != nil {
		t.Errorf("stale up[byKey]: the Seq does not validate: %v", err)
	}
	leaves[0].up[byRank] = low
	if err := s.Validate(); err == nil {
		t.Errorf("stale up[byRank]: validate accepts the broken Seq")
	}
	s.root.node().maxKey = 1
	leaves[0].up[byRank] = s.root.node().kid(0).node()
	if err := s.Validate(); err == nil {
		t.Errorf("validate accepts a Seq node with a maxKey")
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
// it enters the tree and leaves, reverse-indexed, when it leaves the tree;
// rec is the order the Seq must have them in. The kernels of one axis then
// run over leaves the other tree's routing nodes point at and whose other
// up-pointer is live, and check validates both.
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
		m.seq = NewSeqPooled(nil, m.tr.pool)
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

// leave takes leaves the tree has dropped out of the Seq by reverse
// indexing, which must hand them back in recency order.
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
	if got := m.seq.RemoveInto(leaves, make([]int, len(leaves)), make([]*leaf, len(leaves))); !slices.Equal(got, gone) {
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

// dropRanks is BatchDeleteRanks of the sorted ranks.
func (m *treeModel) dropRanks(ranks []int) {
	m.t.Helper()
	keys := make([]int, len(ranks))
	for i, r := range ranks {
		keys[i] = m.keys[r]
	}
	m.forgetAll("BatchDeleteRanks", keys, m.tr.BatchDeleteRanks(ranks))
}

// dropLeaves is RemoveInto of the leaves at the sorted ranks, handed over
// in reverse.
func (m *treeModel) dropLeaves(ranks []int) {
	m.t.Helper()
	keys := make([]int, len(ranks))
	leaves := make([]*leaf, len(ranks))
	for i, r := range ranks {
		keys[i] = m.keys[r]
		leaves[len(ranks)-1-i] = m.leafOf[keys[i]]
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
			m.t.Fatalf("the leaf of %d is not owned by both trees", lf.Key)
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
				m.dropRanks(perm)
			case 1:
				m.dropLeaves(perm)
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
		case 4: // Rank and Kth
			for i, k := range m.keys {
				if r := rank(m.leafOf[k], byKey); r != i {
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

// seqModel is a Seq beside its reference, a slice of its leaves in recency
// order, and a Tree that holds the same leaves by key, as a segment's
// key-map does: whatever the Seq does to a leaf, the tree's routing nodes
// point at it and its up[byKey] is live. A leaf enters the tree when it is
// made and leaves it in retire, once the Seq has lost it for good, so a pop
// and a push of the same leaves run with the tree untouched around them.
type seqModel struct {
	t     *testing.T
	s     *Seq[int, int]
	tr    *Tree[int, int]
	model []*leaf
	held  []*leaf // popped, and not yet pushed again or retired: the tree's alone
	next  int     // keys are distinct and increasing: a new batch is sorted
}

func newSeqModel(t *testing.T) *seqModel {
	pool := NewNodePool[int, int]()
	return &seqModel{t: t, s: NewSeqPooled(nil, pool), tr: NewPooled(nil, pool)}
}

// fresh makes n leaves, which the tree takes at once and the caller pushes.
func (m *seqModel) fresh(n int) []*leaf {
	leaves := mint(span(m.next, m.next+n, 1))
	m.next += n
	m.tr.BatchInsertLeaves(leaves)
	return leaves
}

func (m *seqModel) pushFront(leaves []*leaf) {
	m.s.PushFrontLeaves(leaves)
	m.model, m.held = append(slices.Clone(leaves), m.model...), nil
}

func (m *seqModel) pushBack(leaves []*leaf) {
	m.s.PushBackLeaves(leaves)
	m.model, m.held = append(m.model, leaves...), nil
}

// popFront pops n leaves, or all there are, and returns a copy of them.
func (m *seqModel) popFront(what string, n int, scratch []*leaf) []*leaf {
	m.t.Helper()
	c := min(n, len(m.model))
	got := m.s.PopFront(n, scratch)
	m.same(what, got, m.model[:c])
	m.model, m.held = slices.Clone(m.model[c:]), slices.Clone(got)
	return m.held
}

func (m *seqModel) popBack(what string, n int, scratch []*leaf) []*leaf {
	m.t.Helper()
	c := len(m.model) - min(n, len(m.model))
	got := m.s.PopBack(n, scratch)
	m.same(what, got, m.model[c:])
	m.model, m.held = m.model[:c], slices.Clone(got)
	return m.held
}

// retire takes leaves that are in the Seq no more out of the tree. The tree
// must be whole before — the Seq's kernels ran over its leaves — and give
// back these very leaves.
func (m *seqModel) retire(leaves []*leaf) {
	m.t.Helper()
	if err := m.tr.Validate(); err != nil {
		m.t.Fatalf("the tree, after the Seq lost %d of its leaves: %v", len(leaves), err)
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

// check validates both trees and compares each with the model: the Seq
// leaf by leaf in recency order, the tree in key order.
func (m *seqModel) check(what string) {
	m.t.Helper()
	if err := m.s.Validate(); err != nil {
		m.t.Fatalf("%s: %v", what, err)
	}
	if m.s.Len() != len(m.model) {
		m.t.Fatalf("%s: Len %d, model %d", what, m.s.Len(), len(m.model))
	}
	m.same(what+": Flatten", m.s.Flatten(), m.model)
	if err := m.tr.Validate(); err != nil {
		m.t.Fatalf("%s: the tree over the same leaves: %v", what, err)
	}
	byKey := append(slices.Clone(m.model), m.held...)
	slices.SortFunc(byKey, func(a, b *leaf) int { return a.Key - b.Key })
	m.same(what+": the tree's Flatten", m.tr.Flatten(), byKey)
}

// TestModelSeq is TestModelTree for the recency sequence: pushes, pops
// and reverse-indexed removals against a slice of leaves in recency
// order, with the same share of steps on sequences of 0, 1 and 2 items,
// every leaf in a Tree as well for as long as it is in the Seq.
func TestModelSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := newSeqModel(t)
	s := m.s
	// remove takes the model's leaves at the sorted positions pick out of
	// the sequence, handing them over in random order.
	remove := func(pick []int) {
		var gone, rest []*leaf
		for i, lf := range m.model {
			if _, found := slices.BinarySearch(pick, i); found {
				gone = append(gone, lf)
			} else {
				rest = append(rest, lf)
			}
		}
		shuffled := slices.Clone(gone)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		m.same("RemoveInto", s.RemoveInto(shuffled, make([]int, len(gone)), make([]*leaf, len(gone))), gone)
		m.model = rest
		m.retire(gone)
	}
	var scratch []*leaf
	for step := 0; step < 3000; step++ {
		if step%3 == 0 && len(m.model) > 2 {
			keep := rng.Intn(3)
			cut := len(m.model) - keep
			switch rng.Intn(4) {
			case 0:
				m.retire(m.popBack("PopBack", cut, scratch))
			case 1:
				m.retire(m.popFront("PopFront", cut, scratch))
			case 2: // a run by rank: both ends, or everything, when keep is 0
				remove(span(keep/2, len(m.model)-(keep+1)/2, 1))
			default: // all but the middle: rank deletes at both ends at once
				mid := len(m.model) / 2
				remove(append(span(0, mid-keep/2, 1), span(mid+(keep+1)/2, len(m.model), 1)...))
			}
		}
		switch op := rng.Intn(7); op {
		case 0:
			m.pushFront(m.fresh(rng.Intn(20)))
		case 1:
			m.pushBack(m.fresh(rng.Intn(20)))
		case 2, 3: // pop, and sometimes push the same leaves back at the other end
			n := rng.Intn(len(m.model) + 3) // may exceed the length: pops clamp
			again := rng.Intn(2) == 0
			switch popped := m.popFront("PopFront", n, nil); {
			case op == 3:
				m.pushFront(popped) // undo, to pop at the back
				if popped = m.popBack("PopBack", n, nil); again {
					m.pushFront(popped)
				} else {
					m.retire(popped)
				}
			case again:
				m.pushBack(popped)
			default:
				m.retire(popped)
			}
		case 4: // remove a random subset
			var pick []int
			for i := range m.model {
				if rng.Intn(3) == 0 {
					pick = append(pick, i)
				}
			}
			remove(pick)
		case 5: // RankOf, Kth, Owns
			for i, lf := range m.model {
				if r := s.RankOf(lf); r != i {
					t.Fatalf("step %d: RankOf = %d, want %d", step, r, i)
				}
				if s.Kth(i) != lf {
					t.Fatalf("step %d: Kth(%d) is another leaf", step, i)
				}
				if !s.Owns(lf) || !m.tr.Owns(lf) {
					t.Fatalf("step %d: leaf %d is not owned by both trees", step, i)
				}
			}
			if s.Kth(-1) != nil || s.Kth(len(m.model)) != nil {
				t.Fatalf("step %d: Kth out of range returned a leaf", step)
			}
		case 6: // a leaf of the tree alone, or of neither, belongs to no sequence
			lone := m.fresh(1)
			if s.Owns(lone[0]) || s.Owns(NewLeaf(-1, 0)) {
				t.Fatalf("step %d: sequence owns a leaf it was not pushed", step)
			}
			m.retire(lone)
		}
		m.check(fmt.Sprintf("step %d", step))
	}
	m.retire(m.popFront("PopFront", len(m.model), nil))

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
	for _, n := range []int{0, 1, b, b + 1, b * b, b*b + 1, b*b*b + 1} {
		for _, k := range sizes {
			for _, front := range []bool{true, false} {
				m.pushBack(m.fresh(n))
				// Full nodes first, then nodes at the minimum, down the spine.
				for _, pre := range []int{0, 1, a*b + a} {
					if pre < len(m.model) {
						if front {
							m.retire(m.popFront("PopFront", pre, nil))
						} else {
							m.retire(m.popBack("PopBack", pre, nil))
						}
					}
					m.check(fmt.Sprintf("pop before push of %d at %d", k, n))
					if front {
						m.pushFront(m.fresh(k))
					} else {
						m.pushBack(m.fresh(k))
					}
					m.check(fmt.Sprintf("push of %d at %d", k, n))
				}
				m.retire(m.popBack("PopBack", len(m.model), nil))
			}
		}
	}
	const n = b*b + a*b + 1 // three levels: a root of two, over a full node and one of a+1
	m.pushBack(m.fresh(n))
	for i := 0; i <= n; i++ {
		front := m.popFront("PopFront", i, scratch)
		m.check(fmt.Sprintf("PopFront(%d) of %d", i, n))
		m.pushFront(front)
		m.check(fmt.Sprintf("PushFrontLeaves of %d at %d", i, n))
		back := m.popBack("PopBack", n-i, scratch)
		m.check(fmt.Sprintf("PopBack(%d) of %d", n-i, n))
		m.pushBack(back)
		m.check(fmt.Sprintf("PushBackLeaves of %d at %d", n-i, n))
	}
}

// TestForkedKernels runs every kernel on batches of several times
// batchGrain, so that the recursion forks at the upper levels of the tree
// and the goroutines repair neighbouring subtrees at once (CI runs this
// under -race at GOMAXPROCS 1, 2 and 4), and checks the result leaf by
// leaf. The models are segments: every leaf the tree takes a Seq takes too,
// and every batch the tree drops leaves the Seq through the forking rank
// deleter, so the goroutines of one axis write up-pointers in the leaves the
// other tree hangs on. The tree of 40·batchGrain leaves built in one batch is a root of
// four over full nodes; in 16way every batch leaves out the keys of one
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
			m.dropRanks(span(0, len(m.keys), frac))
			m.check()
			m.dropLeaves(span(1, len(m.keys), 2))
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
				m.dropRanks(ranks)
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
