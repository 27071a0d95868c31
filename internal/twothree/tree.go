package twothree

import (
	"cmp"
	"math/bits"
	"sort"

	"repro/internal/metrics"
)

// Item is one element of a batch update.
type Item[K cmp.Ordered, P any] struct {
	Key     K
	Payload P
}

// Tree is a key-ordered, leaf-based (a,b)-tree supporting sequential and
// batched operations. The zero value is not usable; create trees with New.
//
// Batch operations require the input batch to be sorted by key with
// distinct keys, matching the paper's batched parallel search tree interface.
// A Tree is not safe for concurrent mutation; the working-set maps guard
// each tree with the paper's locking schemes.
type Tree[K cmp.Ordered, P any] struct {
	root ref[K, P]
	cnt  *metrics.Counter
	pool *NodePool[K, P]

	// Scratch of the updates (a Tree has one mutator at a time), holding
	// nothing between calls: the insert kernel's stack, an insert batch's
	// keys, and the one-key batch of Insert and Delete.
	stack []ref[K, P]
	keys  []K
	item  [1]Item[K, P]
	leaf  [1]*Node[K, P]
}

// New returns an empty tree. cnt may be nil; when set, operations charge
// their pointer-machine cost to it.
func New[K cmp.Ordered, P any](cnt *metrics.Counter) *Tree[K, P] {
	return &Tree[K, P]{cnt: cnt}
}

// NewPooled is New with a node free-list: routing nodes that deletions
// leave without children are recycled through pool (which may be shared
// with other trees of the same engine) instead of becoming garbage. pool
// may be nil.
func NewPooled[K cmp.Ordered, P any](cnt *metrics.Counter, pool *NodePool[K, P]) *Tree[K, P] {
	return &Tree[K, P]{cnt: cnt, pool: pool}
}

// Len returns the number of items.
func (t *Tree[K, P]) Len() int { return t.root.size() }

func (t *Tree[K, P]) chargePerOp(ops int) {
	if t.cnt != nil {
		t.cnt.Add(int64(ops) * int64(t.root.height()+2))
	}
}

// chargeBatch charges the cost of a batch operation of size b: the one
// descent visits Θ(b·log(n/b + 2) + b) nodes plus one root path, which is
// what the paper's batched search tree costs (it is the standard
// bulk-operation bound; the coarser per-op bound b·log n used in the
// paper's statements is an upper bound on this).
func (t *Tree[K, P]) chargeBatch(b int) {
	if t.cnt == nil || b == 0 {
		return
	}
	n := t.root.size()
	per := bits.Len(uint(n/b+1)) + 2
	t.cnt.Add(int64(b*per) + int64(t.root.height()+2))
}

// Get returns the leaf holding k, if present. O(log n).
func (t *Tree[K, P]) Get(k K) (*Node[K, P], bool) {
	t.chargePerOp(1)
	r := t.root
	if r.empty() {
		return nil, false
	}
	for !r.isLeaf() {
		n := r.node()
		r = n.kid(n.route(k))
	}
	if lf := r.leaf(); lf.Key == k {
		return lf, true
	}
	return nil, false
}

// Insert adds k with payload p, or overwrites the payload if k is present.
// It returns the item's leaf and whether the key already existed. O(log n).
func (t *Tree[K, P]) Insert(k K, p P) (*Node[K, P], bool) {
	t.chargePerOp(1)
	size := t.Len()
	t.item[0] = Item[K, P]{Key: k, Payload: p}
	t.upsert(t.item[:], t.leaf[:])
	leaf := t.leaf[0]
	t.item[0], t.leaf[0] = Item[K, P]{}, nil
	return leaf, t.Len() == size
}

// Delete removes k and returns its leaf, if present. O(log n).
func (t *Tree[K, P]) Delete(k K) (*Node[K, P], bool) {
	t.chargePerOp(1)
	t.keys = append(t.keys[:0], k)
	t.deleteKeys(t.keys, t.leaf[:])
	leaf := t.leaf[0]
	clear(t.keys)
	t.leaf[0] = nil
	return leaf, leaf != nil
}

// Flatten returns all leaves in key order. O(n).
func (t *Tree[K, P]) Flatten() []*Node[K, P] {
	return appendLeaves(t.root, make([]*Node[K, P], 0, t.Len()))
}

// Owns reports whether leaf currently belongs to this tree, by walking its
// parent chain to the root (test hook; O(log n)).
func (t *Tree[K, P]) Owns(leaf *Node[K, P]) bool {
	return root(leaf) == t.root
}

// Validate checks all structural invariants (test hook).
func (t *Tree[K, P]) Validate() error { return validate(t.root) }

// RangeInto appends to out the leaves with lo <= key < hi, in ascending
// key order, stopping once limit leaves have been appended (limit <= 0
// means no bound). It returns the extended slice. Read-only, O(log n + r)
// for r reported leaves: the descent prunes on each internal node's
// cached maxKey, so subtrees entirely outside [lo, hi) are never entered.
// This is the bounded collector behind the engines' batched range reads.
func (t *Tree[K, P]) RangeInto(lo, hi K, limit int, out []*Node[K, P]) []*Node[K, P] {
	if t.root.empty() || hi <= lo {
		return out
	}
	base := len(out)
	abs := 0 // walk bound as an absolute out length (limit is relative)
	if limit > 0 {
		abs = base + limit
	}
	out, _ = rangeLeaves(t.root, lo, hi, abs, out)
	if t.cnt != nil {
		t.cnt.Add(int64(t.root.height()+2) + int64(len(out)-base))
	}
	return out
}

// rangeLeaves is RangeInto's walk; limit is the absolute out length to
// stop at (0 = unbounded). The bool reports whether the caller should
// keep walking (false once the bound is reached).
func rangeLeaves[K cmp.Ordered, P any](r ref[K, P], lo, hi K, limit int, out []*Node[K, P]) ([]*Node[K, P], bool) {
	if r.isLeaf() {
		if lf := r.leaf(); lf.Key >= lo && lf.Key < hi {
			out = append(out, lf)
		}
		return out, limit <= 0 || len(out) < limit
	}
	n := r.node()
	more := true
	for i := n.route(lo); i < n.nc && more; i++ {
		c := n.kid(i)
		out, more = rangeLeaves(c, lo, hi, limit, out)
		if c.maxKey() >= hi {
			break // later siblings hold only keys > maxKey >= hi
		}
	}
	return out, more
}

// BatchGet looks up every key of the sorted, distinct batch and returns the
// found leaves aligned with keys (nil where absent). Θ(b·log(n/b) + b)
// node visits, read-only, parallel.
func (t *Tree[K, P]) BatchGet(keys []K) []*Node[K, P] {
	return t.BatchGetInto(keys, make([]*Node[K, P], len(keys)))
}

// BatchGetInto is BatchGet writing into caller scratch: out must have
// length len(keys) and is cleared, filled and returned. The engines use
// it to keep their per-batch segment passes allocation-free.
func (t *Tree[K, P]) BatchGetInto(keys []K, out []*Node[K, P]) []*Node[K, P] {
	t.chargeBatch(len(keys))
	clear(out)
	switch {
	case t.root.empty() || len(keys) == 0:
	case t.root.isLeaf():
		if i := matchLeaf(t.root.leaf(), keys); i >= 0 {
			out[i] = t.root.leaf()
		}
	default:
		batchGet(t.root.node(), keys, out)
	}
	return out
}

// BatchUpsert inserts every item of the sorted, distinct batch (overwriting
// payloads of existing keys) and returns the leaves aligned with items.
// One descent, Θ(b·log(n/b) + b) node visits.
func (t *Tree[K, P]) BatchUpsert(items []Item[K, P]) []*Node[K, P] {
	t.chargeBatch(len(items))
	out := make([]*Node[K, P], len(items))
	t.upsert(items, out)
	return out
}

// upsert is BatchUpsert into caller scratch.
func (t *Tree[K, P]) upsert(items []Item[K, P], out []*Node[K, P]) {
	t.keys = t.keys[:0]
	for _, it := range items {
		t.keys = append(t.keys, it.Key)
	}
	t.insert(out, items)
}

// BatchInsertLeaves inserts pre-built leaves (sorted by key, distinct, and
// absent from the tree). It preserves leaf identity, which the working-set
// maps rely on: an item's leaf goes into its segment's recency-map as well,
// and stays the item while it moves between segments.
// Θ(b·log(n/b) + b) node visits.
func (t *Tree[K, P]) BatchInsertLeaves(leaves []*Node[K, P]) {
	t.chargeBatch(len(leaves))
	t.keys = t.keys[:0]
	for _, lf := range leaves {
		t.keys = append(t.keys, lf.Key)
	}
	t.insert(leaves, nil)
}

// insert runs the insert kernel over the batch whose keys are in t.keys.
func (t *Tree[K, P]) insert(lv []*Node[K, P], items []Item[K, P]) {
	if len(lv) == 0 {
		return
	}
	s := inserter[K, P]{np: t.pool, keys: t.keys, lv: lv, items: items, stack: t.stack[:0]}
	t.root = s.run(t.root)
	t.stack = s.stack[:0]
	clear(t.keys)
}

// BatchDelete removes every key of the sorted, distinct batch and returns
// the removed leaves aligned with keys (nil where absent).
// Θ(b·log(n/b) + b) node visits.
func (t *Tree[K, P]) BatchDelete(keys []K) []*Node[K, P] {
	return t.BatchDeleteInto(keys, make([]*Node[K, P], len(keys)))
}

// BatchDeleteInto is BatchDelete writing into caller scratch: out must
// have length len(keys) and is cleared, filled and returned.
func (t *Tree[K, P]) BatchDeleteInto(keys []K, out []*Node[K, P]) []*Node[K, P] {
	t.chargeBatch(len(keys))
	clear(out)
	t.deleteKeys(keys, out)
	return out
}

func (t *Tree[K, P]) deleteKeys(keys []K, out []*Node[K, P]) {
	d := deleter[K, P]{np: t.pool, keys: keys, out: out}
	t.root = d.run(t.root, len(keys))
}

// RemoveInto deletes the given leaves of the tree (in any order) by
// reverse indexing — compute each leaf's rank by a parent walk, sort the
// ranks, and batch-delete — and returns them in key order, in out; ranks
// and out are caller scratch of length len(leaves). This is how a holder of
// direct pointers takes items out without comparing a key. Θ(b log n)
// work.
func (t *Tree[K, P]) RemoveInto(leaves []*Node[K, P], ranks []int, out []*Node[K, P]) []*Node[K, P] {
	t.chargeBatch(len(leaves))
	for i, lf := range leaves {
		ranks[i] = rank(lf)
	}
	sort.Ints(ranks)
	d := deleter[K, P]{np: t.pool, ranks: ranks, out: out}
	t.root = d.run(t.root, len(ranks))
	return out[:len(leaves)]
}
