package twothree

import (
	"cmp"
	"math/bits"
	"sort"

	"repro/internal/metrics"
	"repro/internal/parallel"
)

// batchGrain is the batch size above which batch operations fork their
// divide-and-conquer recursions onto separate goroutines. Below it each
// recursion step returns from its own branch with its own sub-result
// variables: the pair the forked closures assign is heap-allocated where
// it is declared, whether or not the step forks.
const batchGrain = 384

// Item is one element of a batch update.
type Item[K cmp.Ordered, P any] struct {
	Key     K
	Payload P
}

// Tree is a key-ordered, leaf-based 2-3 tree supporting sequential and
// batched operations. The zero value is not usable; create trees with New.
//
// Batch operations require the input batch to be sorted by key with
// distinct keys, matching the paper's batched parallel 2-3 tree interface.
// A Tree is not safe for concurrent mutation; the working-set maps guard
// each tree with the paper's locking schemes.
type Tree[K cmp.Ordered, P any] struct {
	root ref[K, P]
	cnt  *metrics.Counter
	pool *NodePool[K, P]
}

// New returns an empty tree. cnt may be nil; when set, operations charge
// their pointer-machine cost to it.
func New[K cmp.Ordered, P any](cnt *metrics.Counter) *Tree[K, P] {
	return &Tree[K, P]{cnt: cnt}
}

// NewPooled is New with a node free-list: internal nodes dropped by
// splits are recycled through pool (which may be shared with other trees
// of the same engine) instead of becoming garbage. pool may be nil.
func NewPooled[K cmp.Ordered, P any](cnt *metrics.Counter, pool *NodePool[K, P]) *Tree[K, P] {
	return &Tree[K, P]{cnt: cnt, pool: pool}
}

// Len returns the number of items.
func (t *Tree[K, P]) Len() int { return t.root.size() }

// Height returns the height of the tree (-1 when empty).
func (t *Tree[K, P]) Height() int { return int(t.root.height()) }

func (t *Tree[K, P]) chargePerOp(ops int) {
	if t.cnt != nil {
		t.cnt.Add(int64(ops) * int64(t.root.height()+2))
	}
}

// chargeBatch charges the cost of a divide-and-conquer batch operation of
// size b: the recursion visits Θ(b·log(n/b + 2) + b) nodes plus one root
// descent, which is what the paper's batched 2-3 tree costs (it is the
// standard bulk-operation bound; the coarser per-op bound b·log n used in
// the paper's statements is an upper bound on this).
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
	l, eq, r := splitKey(t.pool, t.root, k)
	existed := eq != nil
	if eq == nil {
		eq = NewLeaf(k, p)
	} else {
		eq.Payload = p
	}
	t.root = join(t.pool, join(t.pool, l, leafRef(eq)), r)
	return eq, existed
}

// Delete removes k and returns its leaf, if present. O(log n).
func (t *Tree[K, P]) Delete(k K) (*Node[K, P], bool) {
	t.chargePerOp(1)
	l, eq, r := splitKey(t.pool, t.root, k)
	t.root = join(t.pool, l, r)
	return eq, eq != nil
}

// Min returns the leftmost leaf, or nil when empty.
func (t *Tree[K, P]) Min() *Node[K, P] { return edgeLeaf(t.root, 0) }

// Max returns the rightmost leaf, or nil when empty.
func (t *Tree[K, P]) Max() *Node[K, P] { return edgeLeaf(t.root, 1) }

func edgeLeaf[K cmp.Ordered, P any](r ref[K, P], right int) *Node[K, P] {
	if r.empty() {
		return nil
	}
	for !r.isLeaf() {
		n := r.node()
		if right == 1 {
			r = n.kid(n.nc - 1)
		} else {
			r = n.kid(0)
		}
	}
	return r.leaf()
}

// Kth returns the leaf with rank i (0-based), or nil if out of range.
func (t *Tree[K, P]) Kth(i int) *Node[K, P] {
	if i < 0 || i >= t.root.size() {
		return nil
	}
	t.chargePerOp(1)
	return kth(t.root, i)
}

// kth returns the leaf of rank i under r; 0 <= i < r.size().
func kth[K cmp.Ordered, P any](r ref[K, P], i int) *Node[K, P] {
	for !r.isLeaf() {
		n := r.node()
		var ci int8
		ci, i = n.locate(i)
		r = n.kid(ci)
	}
	return r.leaf()
}

// Flatten returns all leaves in key order. O(n).
func (t *Tree[K, P]) Flatten() []*Node[K, P] {
	return appendLeaves(t.root, make([]*Node[K, P], 0, t.Len()))
}

// FlattenInto is Flatten into caller-owned scratch: all leaves in key
// order are appended to out[:0] and the extended slice returned, so a
// caller that flattens repeatedly (M2's snapshot publication) reuses one
// backing array instead of allocating per flatten.
func (t *Tree[K, P]) FlattenInto(out []*Node[K, P]) []*Node[K, P] {
	return appendLeaves(t.root, out[:0])
}

// Validate checks all structural invariants (test hook).
func (t *Tree[K, P]) Validate() error { return validate(t.root, true) }

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
	for i := int8(0); i < n.nc && more; i++ {
		c := n.kid(i)
		mx := c.maxKey()
		if mx < lo {
			continue // entire subtree below the range
		}
		out, more = rangeLeaves(c, lo, hi, limit, out)
		if mx >= hi {
			break // later siblings hold only keys > maxKey >= hi
		}
	}
	return out, more
}

// BatchGet looks up every key of the sorted, distinct batch and returns the
// found leaves aligned with keys (nil where absent). Θ(b log n) work,
// read-only, parallel.
func (t *Tree[K, P]) BatchGet(keys []K) []*Node[K, P] {
	return t.BatchGetInto(keys, make([]*Node[K, P], len(keys)))
}

// BatchGetInto is BatchGet writing into caller scratch: out must have
// length len(keys) and is cleared, filled and returned. The engines use
// it to keep their per-batch segment passes allocation-free.
func (t *Tree[K, P]) BatchGetInto(keys []K, out []*Node[K, P]) []*Node[K, P] {
	t.chargeBatch(len(keys))
	clear(out)
	batchGet(t.root, keys, out)
	return out
}

func batchGet[K cmp.Ordered, P any](r ref[K, P], keys []K, out []*Node[K, P]) {
	for !r.empty() && len(keys) > 0 {
		if r.isLeaf() {
			// Locate the leaf's key in keys (it can match at most one).
			lf := r.leaf()
			i := sort.Search(len(keys), func(j int) bool { return keys[j] >= lf.Key })
			if i < len(keys) && keys[i] == lf.Key {
				out[i] = lf
			}
			return
		}
		n := r.node()
		// Narrow to a single child when possible to avoid recursion.
		var lo [4]int
		lo[0] = 0
		for ci := int8(0); ci < n.nc; ci++ {
			if ci == n.nc-1 {
				lo[ci+1] = len(keys)
				break
			}
			mx := n.kid(ci).maxKey()
			base := lo[ci]
			lo[ci+1] = base + sort.Search(len(keys)-base, func(j int) bool { return keys[base+j] > mx })
		}
		// Count non-empty child ranges.
		nonEmpty := 0
		only := int8(0)
		for ci := int8(0); ci < n.nc; ci++ {
			if lo[ci+1] > lo[ci] {
				nonEmpty++
				only = ci
			}
		}
		if nonEmpty <= 1 {
			r, keys, out = n.kid(only), keys[lo[only]:lo[only+1]], out[lo[only]:lo[only+1]]
			continue
		}
		if len(keys) < batchGrain {
			// Sequential recursion: no closures, no forking overhead.
			for ci := int8(0); ci < n.nc; ci++ {
				if lo[ci+1] > lo[ci] {
					batchGet(n.kid(ci), keys[lo[ci]:lo[ci+1]], out[lo[ci]:lo[ci+1]])
				}
			}
			return
		}
		var fns [3]func()
		nf := 0
		for ci := int8(0); ci < n.nc; ci++ {
			if lo[ci+1] <= lo[ci] {
				continue
			}
			c, ks, os := n.kid(ci), keys[lo[ci]:lo[ci+1]], out[lo[ci]:lo[ci+1]]
			fns[nf] = func() { batchGet(c, ks, os) }
			nf++
		}
		if nf == 2 {
			parallel.Do(fns[0], fns[1])
		} else {
			parallel.Do3(fns[0], fns[1], fns[2])
		}
		return
	}
}

// BatchUpsert inserts every item of the sorted, distinct batch (overwriting
// payloads of existing keys) and returns the leaves aligned with items.
// Θ(b log n) work.
func (t *Tree[K, P]) BatchUpsert(items []Item[K, P]) []*Node[K, P] {
	t.chargeBatch(len(items))
	out := make([]*Node[K, P], len(items))
	t.root = batchUpsert(t.pool, t.root, items, out)
	return out
}

func batchUpsert[K cmp.Ordered, P any](np *NodePool[K, P], n ref[K, P], items []Item[K, P], out []*Node[K, P]) ref[K, P] {
	if len(items) == 0 {
		return n
	}
	if n.empty() {
		// out doubles as the leaf run to build over.
		for i, it := range items {
			out[i] = NewLeaf(it.Key, it.Payload)
		}
		return buildLeaves(np, out)
	}
	mid := len(items) / 2
	l, eq, r := splitKey(np, n, items[mid].Key)
	if eq == nil {
		eq = NewLeaf(items[mid].Key, items[mid].Payload)
	} else {
		eq.Payload = items[mid].Payload
	}
	out[mid] = eq
	if len(items) < batchGrain {
		lt := batchUpsert(np, l, items[:mid], out[:mid])
		rt := batchUpsert(np, r, items[mid+1:], out[mid+1:])
		return join(np, join(np, lt, leafRef(eq)), rt)
	}
	var lt, rt ref[K, P]
	parallel.Do(
		func() { lt = batchUpsert(np, l, items[:mid], out[:mid]) },
		func() { rt = batchUpsert(np, r, items[mid+1:], out[mid+1:]) },
	)
	return join(np, join(np, lt, leafRef(eq)), rt)
}

// BatchInsertLeaves inserts pre-built leaves (sorted by key, distinct, and
// absent from the tree). It preserves leaf identity, which the working-set
// maps rely on to keep key-map/recency-map cross links valid while items
// move between segments. Θ(b log n) work.
func (t *Tree[K, P]) BatchInsertLeaves(leaves []*Node[K, P]) {
	t.chargeBatch(len(leaves))
	t.root = batchInsertLeaves(t.pool, t.root, leaves)
}

func batchInsertLeaves[K cmp.Ordered, P any](np *NodePool[K, P], n ref[K, P], leaves []*Node[K, P]) ref[K, P] {
	if len(leaves) == 0 {
		return n
	}
	if n.empty() {
		return buildLeaves(np, leaves)
	}
	mid := len(leaves) / 2
	l, eq, r := splitKey(np, n, leaves[mid].Key)
	if eq != nil {
		panic("twothree: BatchInsertLeaves: key already present")
	}
	if len(leaves) < batchGrain {
		lt := batchInsertLeaves(np, l, leaves[:mid])
		rt := batchInsertLeaves(np, r, leaves[mid+1:])
		return join(np, join(np, lt, leafRef(leaves[mid])), rt)
	}
	var lt, rt ref[K, P]
	parallel.Do(
		func() { lt = batchInsertLeaves(np, l, leaves[:mid]) },
		func() { rt = batchInsertLeaves(np, r, leaves[mid+1:]) },
	)
	return join(np, join(np, lt, leafRef(leaves[mid])), rt)
}

// BatchDelete removes every key of the sorted, distinct batch and returns
// the removed leaves aligned with keys (nil where absent). Θ(b log n) work.
func (t *Tree[K, P]) BatchDelete(keys []K) []*Node[K, P] {
	return t.BatchDeleteInto(keys, make([]*Node[K, P], len(keys)))
}

// BatchDeleteInto is BatchDelete writing into caller scratch: out must
// have length len(keys) and is cleared, filled and returned.
func (t *Tree[K, P]) BatchDeleteInto(keys []K, out []*Node[K, P]) []*Node[K, P] {
	t.chargeBatch(len(keys))
	clear(out)
	t.root = batchDelete(t.pool, t.root, keys, out)
	return out
}

func batchDelete[K cmp.Ordered, P any](np *NodePool[K, P], n ref[K, P], keys []K, out []*Node[K, P]) ref[K, P] {
	if len(keys) == 0 || n.empty() {
		return n
	}
	mid := len(keys) / 2
	l, eq, r := splitKey(np, n, keys[mid])
	out[mid] = eq
	if len(keys) < batchGrain {
		lt := batchDelete(np, l, keys[:mid], out[:mid])
		rt := batchDelete(np, r, keys[mid+1:], out[mid+1:])
		return join(np, lt, rt)
	}
	var lt, rt ref[K, P]
	parallel.Do(
		func() { lt = batchDelete(np, l, keys[:mid], out[:mid]) },
		func() { rt = batchDelete(np, r, keys[mid+1:], out[mid+1:]) },
	)
	return join(np, lt, rt)
}

// BatchDeleteRanks removes the leaves at the given sorted, distinct 0-based
// ranks and returns them in rank order. This is the second half of the
// paper's reverse-indexing pattern: ranks come from Rank walks on direct
// pointers. Θ(b log n) work.
func (t *Tree[K, P]) BatchDeleteRanks(ranks []int) []*Node[K, P] {
	t.chargeBatch(len(ranks))
	out := make([]*Node[K, P], len(ranks))
	t.root = batchDeleteRanks(t.pool, t.root, ranks, 0, out)
	return out
}

func batchDeleteRanks[K cmp.Ordered, P any](np *NodePool[K, P], n ref[K, P], ranks []int, off int, out []*Node[K, P]) ref[K, P] {
	if len(ranks) == 0 {
		return n
	}
	mid := len(ranks) / 2
	a, rest := splitRank(np, n, ranks[mid]-off)
	leaf, b := splitRank(np, rest, 1)
	out[mid] = leaf.leaf()
	if len(ranks) < batchGrain {
		at := batchDeleteRanks(np, a, ranks[:mid], off, out[:mid])
		bt := batchDeleteRanks(np, b, ranks[mid+1:], ranks[mid]+1, out[mid+1:])
		return join(np, at, bt)
	}
	var at, bt ref[K, P]
	parallel.Do(
		func() { at = batchDeleteRanks(np, a, ranks[:mid], off, out[:mid]) },
		func() { bt = batchDeleteRanks(np, b, ranks[mid+1:], ranks[mid]+1, out[mid+1:]) },
	)
	return join(np, at, bt)
}
