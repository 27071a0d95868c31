// Package twothree implements the batched parallel 2-3 tree of the paper's
// Appendix A.2 (adapted from Paul, Vishkin and Wagener's parallel 2-3
// dictionary), plus the recency sequence used for every segment's
// recency-map.
//
// Trees are leaf-based: all items live in leaves; internal nodes have two or
// three children and carry the subtree size (for rank/order-statistic
// queries) and the maximum key of their subtree (for routing). Leaves carry
// parent pointers so that a "direct pointer" to an item supports the
// reverse-indexing operation: computing the leaf's rank by walking to the
// root costs O(log n), and a batch of b ranks is then ordered by an integer
// sort, for a total of O(b log n) work — the same bound as the paper's
// batched reverse-indexing.
//
// Batch operations take key-sorted batches of distinct keys (or sorted
// ranks) and are the in-place scheme of Paul-Vishkin-Wagener: the batch is
// routed down the tree once and the tree is repaired on the way back. Every
// routing node deals its share of the batch to its children by their
// maxKey (by their cumulative size, for ranks) with one binary search per
// child boundary, and only children that were dealt a key are visited, so
// neighbouring keys of the batch share the path they have in common: a
// batch of b visits Θ(b·log(n/b) + b) nodes, not b root-to-leaf spines,
// and a subtree no key routes to is never entered. Leaves are edited under
// the h == 1 nodes. An insert hands back to a node's parent the list of
// same-height nodes that replace it — the node itself first, then new ones,
// its children regrouped three to a node with twos to finish; the lists sit
// on one stack owned by the tree, so a run allocates only the routing nodes
// the tree grows by. A delete hands back the node while it keeps two or
// three children; what is left of a node that does not is hung under the
// spine of the sibling beside it (join's two halves, joinLeft and
// joinRight), at any height difference. A node whose set of children did
// not change is updated from the count of leaves added or removed, without
// reading the children. The shares of different children are disjoint
// subtrees, so a node with a share of batchGrain keys or more forks the
// visits to its children (each insert branch building its list on a stack
// of its own): the span is O(log b · log n), against the pipelined
// O(log b + log n) of Paul-Vishkin-Wagener, with every work bound intact.
// join and splitRank (joinsplit.go) remain for the recency sequence, which
// only ever changes at its two ends.
//
// Node layout. Leaves and routing nodes are two struct types, so neither
// pays for the other's fields: a leaf (Node) is a parent pointer, the key
// and the payload; a routing node (inner) is a parent pointer, three child
// references, the child count, height, subtree size and subtree maximum.
// A routing node's children are all leaves or all routing nodes, and its
// height says which: h == 1 ⇒ the children are leaves, h > 1 ⇒ they are
// routing nodes. Child references are therefore untyped single-word
// pointers (unsafe.Pointer) cast on the parent's height — an interface
// would spend a second word per child on a type the height already gives.
// Every such cast is in this file; the rest of the package works on ref,
// a (pointer, height) handle, and never sees an untyped pointer.
package twothree

import (
	"cmp"
	"fmt"
	"unsafe"
)

// Node is a 2-3 tree leaf: one item's key and payload. Leaves are stable:
// once created, a leaf is identified by its pointer for as long as the item
// is in the tree ("direct pointers" in the paper), even as batch operations
// restructure the routing nodes above it.
type Node[K cmp.Ordered, P any] struct {
	// Payload leads so that a zero-size payload (the recency sequence's
	// struct{}) does not pad the struct's tail.
	Payload P
	Key     K
	parent  *inner[K, P]
}

// inner is a routing node: two or three children, all of height h-1.
type inner[K cmp.Ordered, P any] struct {
	parent *inner[K, P]
	child  [3]unsafe.Pointer // *Node[K, P] when h == 1, *inner[K, P] otherwise
	size   int               // number of leaves in the subtree
	maxKey K                 // maximum key in the subtree
	h      int16             // height above the leaf level, >= 1; fixed at creation
	nc     int8              // number of children, 2 or 3
}

// ref is a reference to a subtree: empty, a leaf (h == 0) or a routing node
// (h >= 1). It lives in tree roots, locals and arguments only; nodes store
// the bare pointer and recover h from their own height.
type ref[K cmp.Ordered, P any] struct {
	p unsafe.Pointer
	h int16 // height of the node p points at; 0 when p is nil
}

func leafRef[K cmp.Ordered, P any](n *Node[K, P]) ref[K, P] {
	return ref[K, P]{p: unsafe.Pointer(n)}
}

func innerRef[K cmp.Ordered, P any](n *inner[K, P]) ref[K, P] {
	return ref[K, P]{p: unsafe.Pointer(n), h: n.h}
}

func (r ref[K, P]) empty() bool { return r.p == nil }

// isLeaf reports whether a non-empty r is a leaf.
func (r ref[K, P]) isLeaf() bool { return r.h == 0 }

// leaf returns r as a leaf; r must be empty (giving nil) or have h == 0.
func (r ref[K, P]) leaf() *Node[K, P] { return (*Node[K, P])(r.p) }

// node returns r as a routing node; r must have h >= 1.
func (r ref[K, P]) node() *inner[K, P] { return (*inner[K, P])(r.p) }

// size returns the number of leaves under r (0 when empty).
func (r ref[K, P]) size() int {
	switch {
	case r.p == nil:
		return 0
	case r.h == 0:
		return 1
	}
	return r.node().size
}

// height returns r's height, -1 when empty.
func (r ref[K, P]) height() int16 {
	if r.p == nil {
		return -1
	}
	return r.h
}

// maxKey returns the maximum key under a non-empty r.
func (r ref[K, P]) maxKey() K {
	if r.h == 0 {
		return r.leaf().Key
	}
	return r.node().maxKey
}

// parent returns the parent pointer of a non-empty r.
func (r ref[K, P]) parent() *inner[K, P] {
	if r.h == 0 {
		return r.leaf().parent
	}
	return r.node().parent
}

// detach clears r's parent pointer so it can stand alone as a root.
func (r ref[K, P]) detach() ref[K, P] {
	switch {
	case r.p == nil:
	case r.h == 0:
		r.leaf().parent = nil
	default:
		r.node().parent = nil
	}
	return r
}

// kid returns n's i'th child.
func (n *inner[K, P]) kid(i int8) ref[K, P] {
	return ref[K, P]{p: n.child[i], h: n.h - 1}
}

// setKid stores c, which must have height n.h-1 (or be empty), as n's i'th
// child. The caller refreshes n once its children are in place.
func (n *inner[K, P]) setKid(i int8, c ref[K, P]) { n.child[i] = c.p }

// setKids makes kids — two or three subtrees of height n.h-1, in order —
// n's children and refreshes n.
func (n *inner[K, P]) setKids(kids []ref[K, P]) {
	n.child = [3]unsafe.Pointer{}
	for i, c := range kids {
		n.child[i] = c.p
	}
	n.nc = int8(len(kids))
	refresh(n)
}

// insertKid makes c, of height n.h-1, the i'th of n's now three children,
// moving the later ones right. The caller refreshes n.
func (n *inner[K, P]) insertKid(i int8, c ref[K, P]) {
	copy(n.child[i+1:], n.child[i:n.nc])
	n.child[i] = c.p
	n.nc++
}

// dropKid removes n's i'th child, moving the later ones left. The caller
// refreshes n.
func (n *inner[K, P]) dropKid(i int8) {
	copy(n.child[i:], n.child[i+1:n.nc])
	n.nc--
	n.child[n.nc] = nil
}

// route returns the index of the child of n whose subtree would hold k: the
// first child whose maximum is >= k, or the last child.
func (n *inner[K, P]) route(k K) int8 {
	i, last := int8(0), n.nc-1
	if n.h == 1 {
		for i < last && (*Node[K, P])(n.child[i]).Key < k {
			i++
		}
		return i
	}
	for i < last && (*inner[K, P])(n.child[i]).maxKey < k {
		i++
	}
	return i
}

// locate returns the index of the child of n holding the leaf of rank i
// (0 <= i < n.size) and that leaf's rank within the child.
func (n *inner[K, P]) locate(i int) (int8, int) {
	if n.h == 1 {
		return int8(i), 0
	}
	ci := int8(0)
	for {
		sz := (*inner[K, P])(n.child[ci]).size
		if i < sz {
			return ci, i
		}
		i -= sz
		ci++
	}
}

// NewLeaf creates a detached leaf, for later insertion with
// BatchInsertLeaves. Callers use this to build an item's leaf once and move
// it between trees without breaking direct pointers to it.
func NewLeaf[K cmp.Ordered, P any](k K, p P) *Node[K, P] {
	return &Node[K, P]{Key: k, Payload: p}
}

// refresh recomputes the cached size and maximum of a routing node from its
// children, and points the children back at it. Children must already be in
// place.
func refresh[K cmp.Ordered, P any](n *inner[K, P]) {
	if n.h == 1 {
		for i := int8(0); i < n.nc; i++ {
			(*Node[K, P])(n.child[i]).parent = n
		}
		n.size = int(n.nc)
		n.maxKey = (*Node[K, P])(n.child[n.nc-1]).Key
		return
	}
	n.size = 0
	for i := int8(0); i < n.nc; i++ {
		c := (*inner[K, P])(n.child[i])
		n.size += c.size
		c.parent = n
	}
	n.maxKey = (*inner[K, P])(n.child[n.nc-1]).maxKey
}

// mk2 makes a routing node over a and b, which must have equal heights.
func mk2[K cmp.Ordered, P any](np *NodePool[K, P], a, b ref[K, P]) *inner[K, P] {
	n := np.get()
	n.h, n.nc = a.h+1, 2
	n.child[0], n.child[1] = a.p, b.p
	refresh(n)
	return n
}

// mk3 makes a routing node over a, b and c, which must have equal heights.
func mk3[K cmp.Ordered, P any](np *NodePool[K, P], a, b, c ref[K, P]) *inner[K, P] {
	n := np.get()
	n.h, n.nc = a.h+1, 3
	n.child[0], n.child[1], n.child[2] = a.p, b.p, c.p
	refresh(n)
	return n
}

// Rank returns the number of leaves strictly before leaf in its tree's
// left-to-right order, by walking parent pointers and summing the sizes of
// left siblings. O(log n). leaf must currently belong to a tree.
func Rank[K cmp.Ordered, P any](leaf *Node[K, P]) int {
	r := 0
	cur := unsafe.Pointer(leaf)
	for p := leaf.parent; p != nil; cur, p = unsafe.Pointer(p), p.parent {
		for i := int8(0); p.child[i] != cur; i++ {
			r += p.kid(i).size()
		}
	}
	return r
}

// root returns the root of the tree leaf currently belongs to.
func root[K cmp.Ordered, P any](leaf *Node[K, P]) ref[K, P] {
	p := leaf.parent
	if p == nil {
		return leafRef(leaf)
	}
	for p.parent != nil {
		p = p.parent
	}
	return innerRef(p)
}

// appendLeaves appends the leaves under r, left to right, to out.
func appendLeaves[K cmp.Ordered, P any](r ref[K, P], out []*Node[K, P]) []*Node[K, P] {
	if r.empty() {
		return out
	}
	if r.isLeaf() {
		return append(out, r.leaf())
	}
	n := r.node()
	for i := int8(0); i < n.nc; i++ {
		out = appendLeaves(n.kid(i), out)
	}
	return out
}

// appendLeavesFree is appendLeaves for a subtree being dismantled: the
// routing nodes are recycled into the pool as the walk leaves them
// behind. The extracted leaves keep their identity (their stale parent
// pointers are overwritten on the next insertion, exactly as with the
// non-freeing walk).
func appendLeavesFree[K cmp.Ordered, P any](np *NodePool[K, P], r ref[K, P], out []*Node[K, P]) []*Node[K, P] {
	if r.empty() {
		return out
	}
	if r.isLeaf() {
		return append(out, r.leaf())
	}
	n := r.node()
	for i := int8(0); i < n.nc; i++ {
		out = appendLeavesFree(np, n.kid(i), out)
	}
	np.put(n)
	return out
}

// take is how many of rem >= 2 same-height subtrees the next routing node
// built over them gets: three, with twos to finish a remainder of two or
// four.
func take(rem int) int {
	if rem == 2 || rem == 4 {
		return 2
	}
	return 3
}

// group makes routing nodes over kids — two or more subtrees of equal
// height, in order — and writes them over the front of kids, returning how
// many it made. The first is first unless that is nil (a node rebuilt in
// place keeps its identity); the rest come from the pool.
func group[K cmp.Ordered, P any](np *NodePool[K, P], first *inner[K, P], kids []ref[K, P]) int {
	h := kids[0].h + 1
	w := 0
	for i := 0; i < len(kids); w++ {
		n := first
		first = nil
		if n == nil {
			n = np.get()
			n.h = h
		}
		g := take(len(kids) - i)
		n.setKids(kids[i : i+g])
		kids[w] = innerRef(n) // w <= i: written behind what was just read
		i += g
	}
	return w
}

// buildStack is how many first-level routing nodes buildLeaves keeps on its
// own stack; longer runs of leaves allocate one level buffer.
const buildStack = 16

// buildLeaves constructs a balanced 2-3 tree over the given leaves (in
// order) and returns its root (empty for an empty slice). O(b) work. Each
// level is grouped left to right as group does it; a level is written over
// the front of the previous one, which it can never overtake, so one buffer
// of half the leaf count serves every level.
func buildLeaves[K cmp.Ordered, P any](np *NodePool[K, P], leaves []*Node[K, P]) ref[K, P] {
	switch len(leaves) {
	case 0:
		return ref[K, P]{}
	case 1:
		return leafRef(leaves[0]).detach()
	}
	var stack [buildStack]ref[K, P]
	level := stack[:0]
	if need := (len(leaves) + 1) / 2; need > buildStack {
		level = make([]ref[K, P], 0, need)
	}
	for i := 0; i < len(leaves); {
		if take(len(leaves)-i) == 2 {
			level = append(level, innerRef(mk2(np, leafRef(leaves[i]), leafRef(leaves[i+1]))))
			i += 2
		} else {
			level = append(level, innerRef(mk3(np, leafRef(leaves[i]), leafRef(leaves[i+1]), leafRef(leaves[i+2]))))
			i += 3
		}
	}
	for len(level) > 1 {
		level = level[:group(np, nil, level)]
	}
	return level[0]
}

// validate checks structural invariants below r: uniform leaf depth, 2-3
// fan-out, size and maxKey caching, and parent pointers. If ordered is true
// it additionally checks that leaf keys are strictly increasing.
func validate[K cmp.Ordered, P any](r ref[K, P], ordered bool) error {
	if r.empty() {
		return nil
	}
	if r.parent() != nil {
		return fmt.Errorf("root has non-nil parent")
	}
	var prev *K
	// walk checks the subtree r, whose parent pointer must be up.
	var walk func(r ref[K, P], up *inner[K, P]) error
	walk = func(r ref[K, P], up *inner[K, P]) error {
		if r.isLeaf() {
			lf := r.leaf()
			if lf.parent != up {
				return fmt.Errorf("leaf %v has wrong parent", lf.Key)
			}
			if ordered && prev != nil && cmp.Compare(*prev, lf.Key) >= 0 {
				return fmt.Errorf("keys out of order: %v before %v", *prev, lf.Key)
			}
			k := lf.Key
			prev = &k
			return nil
		}
		n := r.node()
		if n.parent != up {
			return fmt.Errorf("node of height %d has wrong parent", n.h)
		}
		if n.h != r.h {
			return fmt.Errorf("node height %d reached as height %d", n.h, r.h)
		}
		if n.nc < 2 || n.nc > 3 {
			return fmt.Errorf("internal node with %d children", n.nc)
		}
		size := 0
		for i := int8(0); i < n.nc; i++ {
			c := n.kid(i)
			if c.empty() {
				return fmt.Errorf("nil child %d", i)
			}
			if err := walk(c, n); err != nil {
				return err
			}
			size += c.size()
		}
		if n.nc == 2 && n.child[2] != nil {
			return fmt.Errorf("two-child node holds a third pointer")
		}
		if size != n.size {
			return fmt.Errorf("cached size %d, actual %d", n.size, size)
		}
		if n.maxKey != n.kid(n.nc-1).maxKey() {
			return fmt.Errorf("stale maxKey %v", n.maxKey)
		}
		return nil
	}
	return walk(r, nil)
}
