// Package twothree implements the batched parallel search tree of the
// paper's Appendix A.2, and the recency sequence that every segment's
// recency-map is. The appendix picks the 2-3 tree of Paul, Vishkin and
// Wagener; nothing in the paper's bounds needs fan-out 3, only height
// O(log n) and a batch descent of Θ(b·log(n/b) + b) visits, and this package
// keeps both on an (a,b)-tree with a = minKids = 8 and b = maxKids = 16. The
// package name and path are the 2-3 tree's because bench/probes.go imports
// them.
//
// Trees are leaf-based: all items live in leaves; routing nodes have
// minKids..maxKids children (the root: 2..maxKids) and carry the subtree
// size (for rank/order-statistic queries) and the maximum key of their
// subtree (for routing), so the height is at most log_8 n below the root.
// Leaves carry parent pointers so that a "direct pointer" to an item
// supports the reverse-indexing operation: computing the leaf's rank by
// walking to the root costs O(log n), and a batch of b ranks is then ordered
// by an integer sort, for a total of O(b log n) work — the same bound as the
// paper's batched reverse-indexing.
//
// The minimum is strict: no operation leaves a routing node below the root
// with fewer than minKids children. A relaxed minimum (2, say) keeps every
// bound but not the footprint: under random overwrites the occupancy of a
// node is then a critical birth–death chain on [2, maxKids] whose mean is
// 6.3 children, and bytes per item drift up by a fifth and more; on
// [minKids, maxKids] no node is ever less than half full
// (TestBytesPerItemChurn in the root package is the test of that).
//
// Batch operations take key-sorted batches of distinct keys (or sorted
// ranks) and are the in-place scheme of Paul-Vishkin-Wagener: the batch is
// routed down the tree once and the tree is repaired on the way back. Every
// routing node deals its share of the batch to its children in one sweep
// (partition: a binary search over the children not yet dealt to finds the
// child a share starts in, one over the batch finds where the share ends;
// ranks are dealt by cumulative size), and only children that were dealt a
// key are visited, so neighbouring keys of the batch share the path they
// have in common: a batch of b visits Θ(b·log(n/b) + b) nodes, not b
// root-to-leaf spines, and a subtree no key routes to is never entered.
// Leaves are edited under the h == 1 nodes. An insert hands back to a
// node's parent the list of same-height nodes that replace it — the node
// itself first, then new ones, its children regrouped into full nodes with
// the remainder split so that each keeps minKids; the lists sit on one
// stack owned by the tree, so a run allocates only the routing nodes the
// tree grows by, and a node that takes new children without splitting
// touches only those. A delete hands back the node while it keeps two
// children or more, thin (fewer than minKids) or not, and its only child in
// its place otherwise; the parent puts what is thin or short beside or under
// the sibling next to it (hang: merge with the node of the same height on
// that sibling's spine, or share children evenly with it when one node
// cannot hold both), at any height difference. A node whose set of children
// did not change is updated from the count of leaves added or removed,
// without reading the children. The shares of different children are
// disjoint subtrees, so a node with a share of batchGrain keys or more forks
// the visits to its children: in two, by halves of the share, and each half
// again while it has batchGrain keys and more than one child to give them
// to, up to maxKids ways (each insert branch building its list on a stack
// of its own). The span is O(log b · log n), against the pipelined
// O(log b + log n) of Paul-Vishkin-Wagener, with every work bound intact.
//
// Node layout. Leaves and routing nodes are two struct types, so neither
// pays for the other's fields. There is one leaf type, Node, and it is an
// item of both maps of a working-set segment at once: the key-map, a Tree,
// threads it through its one up-pointer, and the recency-map, a Seq (seq.go),
// is an intrusive doubly-linked list through its prev and next, with pos
// holding the Seq's tag and the leaf's stamp in it. A Tree never reads the
// list fields and a Seq never reads the key or the up-pointer; the leaf is
// 64 bytes with a string key and value, the size class exactly. A routing
// node (inner) is a parent pointer, maxKids child references, the child
// count, height, subtree size and subtree maximum — 160 bytes with a string
// key, ten per child slot; only Trees have them.
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
	"math"
	"unsafe"
)

// maxKids and minKids bound the children of a routing node below the root;
// the root has 2..maxKids. Sixteen makes the node of a string-keyed tree
// exactly the 160-byte size class; the bytes per item are about the same at
// any width from 8 to 32 (~10 per child slot at the ~70 % fill random
// insertion settles at), so the width is chosen for the height.
const (
	maxKids = 16
	minKids = maxKids / 2
)

// Node is a tree leaf: one item's key and payload. Leaves are stable:
// once created, a leaf is identified by its pointer for as long as the item
// is in the tree ("direct pointers" in the paper), even as batch operations
// restructure the routing nodes above it. A leaf may be in one Tree and in
// one Seq at the same time; neither reads or writes the other's fields.
type Node[K cmp.Ordered, P any] struct {
	Payload    P
	Key        K
	up         *inner[K, P] // the leaf's parent in its Tree; stale when it is in none
	prev, next *Node[K, P]  // its neighbours in its Seq, towards the front and the back
	pos        uint64       // its Seq's tag and its stamp there (seq.go); 0 in no Seq
}

// inner is a routing node: nc children, all of height h-1. size is 32 bits
// wide to keep the node in its size class, which caps a tree at 2^31-1
// leaves; growing past that panics (setSize) rather than wraps.
type inner[K cmp.Ordered, P any] struct {
	parent *inner[K, P]
	child  [maxKids]unsafe.Pointer // *Node[K, P] when h == 1, *inner[K, P] otherwise; nil from nc on
	maxKey K                       // maximum key in the subtree
	size   int32                   // number of leaves in the subtree
	h      int16                   // height above the leaf level, >= 1; fixed at creation
	nc     int8                    // number of children
}

// A side is an end of a node's children.
type side bool

const (
	left  side = false
	right side = true
)

// ref is a reference to a subtree: empty, a leaf (h == 0) or a routing node
// (h >= 1). It lives in tree roots, locals and arguments only; nodes store
// the bare pointer and recover h from their own.
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
	return int(r.node().size)
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
		return r.leaf().up
	}
	return r.node().parent
}

// setParent points r, if not empty, back at up; nil lets it stand alone as a
// root.
func (r ref[K, P]) setParent(up *inner[K, P]) {
	switch {
	case r.p == nil:
	case r.h == 0:
		r.leaf().up = up
	default:
		r.node().parent = up
	}
}

// detach clears r's parent pointer so it can stand alone as a root.
func (r ref[K, P]) detach() ref[K, P] {
	r.setParent(nil)
	return r
}

// whole reports whether a non-empty r can be the child of a node of height
// h as it is: it has that height less one and, if a routing node, minKids
// children. What is not whole is thin (that height, too few children) or
// short (a lower one).
func (r ref[K, P]) whole(h int16) bool {
	return r.h == h-1 && (r.h == 0 || r.node().nc >= minKids)
}

// kid returns n's i'th child.
func (n *inner[K, P]) kid(i int8) ref[K, P] {
	return ref[K, P]{p: n.child[i], h: n.h - 1}
}

// edge returns n's first or last child.
func (n *inner[K, P]) edge(s side) ref[K, P] {
	if s == right {
		return n.kid(n.nc - 1)
	}
	return n.kid(0)
}

// setSize sets n's leaf count.
func (n *inner[K, P]) setSize(size int) {
	if size > math.MaxInt32 {
		panic("twothree: tree exceeds 2^31-1 leaves")
	}
	n.size = int32(size)
}

// setKids makes kids — at most maxKids subtrees of height n.h-1, in order —
// n's children and refreshes n.
func (n *inner[K, P]) setKids(kids []ref[K, P]) {
	n.putKids(kids)
	refresh(n)
}

// putKids makes kids n's children and no more: neither n's size and maximum
// nor the children's parent pointers are touched.
func (n *inner[K, P]) putKids(kids []ref[K, P]) {
	n.child = [maxKids]unsafe.Pointer{}
	for i, c := range kids {
		n.child[i] = c.p
	}
	n.nc = int8(len(kids))
}

// addKid makes c, of height n.h-1, the first or last of n's children, of
// which there must be fewer than maxKids, and points it back at n. n's size
// and maximum are the caller's.
func (n *inner[K, P]) addKid(s side, c ref[K, P]) {
	if s == right {
		n.child[n.nc] = c.p
	} else {
		copy(n.child[1:], n.child[:n.nc])
		n.child[0] = c.p
	}
	n.nc++
	c.setParent(n)
}

// pour moves cnt children between the neighbours l and r (l to the left, of
// one height): the last cnt of l to the front of r when to is right, the
// first cnt of r to the end of l otherwise. Only the children that move are
// touched, for their sizes and parent pointers, and l's new last child for
// l's maximum; a node left without children keeps a stale one.
func pour[K cmp.Ordered, P any](l, r *inner[K, P], cnt int8, to side) {
	from, dst, at := l, r, int8(0)
	if to == right {
		copy(r.child[cnt:], r.child[:r.nc])
		copy(r.child[:cnt], l.child[l.nc-cnt:l.nc])
		clear(l.child[l.nc-cnt : l.nc])
	} else {
		from, dst, at = r, l, l.nc
		copy(l.child[l.nc:], r.child[:cnt])
		copy(r.child[:], r.child[cnt:r.nc])
		clear(r.child[r.nc-cnt : r.nc])
	}
	moved := 0
	for i := at; i < at+cnt; i++ {
		c := dst.kid(i)
		c.setParent(dst)
		moved += c.size()
	}
	from.nc -= cnt
	dst.nc += cnt
	from.size -= int32(moved)
	dst.setSize(int(dst.size) + moved)
	if l.nc > 0 {
		l.maxKey = l.kid(l.nc - 1).maxKey()
	}
}

// maxAt returns the maximum key under the i'th child of n, a node of a Tree.
func (n *inner[K, P]) maxAt(i int8) K {
	if n.h == 1 {
		return (*Node[K, P])(n.child[i]).Key
	}
	return (*inner[K, P])(n.child[i]).maxKey
}

// routeIn returns the first of n's children i <= c < j whose maximum is >= k,
// j when none is, by binary search.
func (n *inner[K, P]) routeIn(i, j int8, k K) int8 {
	for i < j {
		if m := int8(uint8(i+j) >> 1); n.maxAt(m) < k {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// route returns the index of the child of n whose subtree would hold k: the
// first child whose maximum is >= k, or the last child.
func (n *inner[K, P]) route(k K) int8 { return n.routeIn(0, n.nc-1, k) }

// locate returns the index of the child of n holding the leaf of rank i
// (0 <= i < n.size) and that leaf's rank within the child.
func (n *inner[K, P]) locate(i int) (int8, int) {
	if n.h == 1 {
		return int8(i), 0
	}
	ci := int8(0)
	for {
		sz := int((*inner[K, P])(n.child[ci]).size)
		if i < sz {
			return ci, i
		}
		i -= sz
		ci++
	}
}

// NewLeaf creates a detached leaf, for later insertion with
// BatchInsertLeaves and a Seq's pushes. Callers use this to build an item's
// leaf once and move it between trees without breaking direct pointers to
// it.
func NewLeaf[K cmp.Ordered, P any](k K, p P) *Node[K, P] {
	return &Node[K, P]{Key: k, Payload: p}
}

// refresh recomputes the cached size and maximum of a routing node from its
// children, and points the children back at it. Children must already be in
// place.
func refresh[K cmp.Ordered, P any](n *inner[K, P]) {
	if n.h == 1 {
		for i := int8(0); i < n.nc; i++ {
			(*Node[K, P])(n.child[i]).up = n
		}
		n.size = int32(n.nc)
	} else {
		size := 0
		for i := int8(0); i < n.nc; i++ {
			c := (*inner[K, P])(n.child[i])
			size += int(c.size)
			c.parent = n
		}
		n.setSize(size)
	}
	n.maxKey = n.kid(n.nc - 1).maxKey()
}

// mk2 makes a routing node over a and b, which must have equal heights.
func mk2[K cmp.Ordered, P any](np *NodePool[K, P], a, b ref[K, P]) *inner[K, P] {
	n := np.get(a.h + 1)
	n.setKids([]ref[K, P]{a, b})
	return n
}

// rank returns the number of leaves strictly before leaf in the key order
// of the tree it is in, by walking parent pointers and summing the sizes of
// left siblings. O(log n). leaf must currently belong to a tree.
func rank[K cmp.Ordered, P any](leaf *Node[K, P]) int {
	r := 0
	cur := unsafe.Pointer(leaf)
	for p := leaf.up; p != nil; cur, p = unsafe.Pointer(p), p.parent {
		for i := int8(0); p.child[i] != cur; i++ {
			r += p.kid(i).size()
		}
	}
	return r
}

// root returns the root of the tree leaf currently belongs to.
func root[K cmp.Ordered, P any](leaf *Node[K, P]) ref[K, P] {
	p := leaf.up
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

// take is how many of rem >= 2 same-height subtrees the next routing node
// built over them gets: maxKids while that leaves minKids for the next, all
// that fit in one node, and otherwise half, so that the last two nodes share
// a remainder neither could hold alone.
func take(rem int) int {
	switch {
	case rem <= maxKids:
		return rem
	case rem >= maxKids+minKids:
		return maxKids
	}
	return (rem + 1) / 2
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
			n = np.get(h)
		}
		g := take(len(kids) - i)
		n.setKids(kids[i : i+g])
		kids[w] = innerRef(n) // w <= i: written behind what was just read
		i += g
	}
	return w
}

// validate checks structural invariants below r: uniform leaf depth,
// minKids..maxKids children below the root and 2..maxKids at it, no child
// pointer past the count, size and maxKey caching, parent pointers, and
// strictly increasing leaf keys.
func validate[K cmp.Ordered, P any](r ref[K, P]) error {
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
			if lf.up != up {
				return fmt.Errorf("leaf %v has wrong parent", lf.Key)
			}
			if prev != nil && cmp.Compare(*prev, lf.Key) >= 0 {
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
			return fmt.Errorf("node of height %d reached as height %d", n.h, r.h)
		}
		least := int8(minKids)
		if up == nil {
			least = 2
		}
		if n.nc < least || n.nc > maxKids {
			return fmt.Errorf("node of height %d (root: %v) with %d children, want %d..%d", n.h, up == nil, n.nc, least, maxKids)
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
		for _, p := range n.child[n.nc:] {
			if p != nil {
				return fmt.Errorf("node with %d children holds a pointer past them", n.nc)
			}
		}
		if size != int(n.size) {
			return fmt.Errorf("cached size %d, actual %d", n.size, size)
		}
		if n.maxKey != n.kid(n.nc-1).maxKey() {
			return fmt.Errorf("stale maxKey %v", n.maxKey)
		}
		return nil
	}
	return walk(r, nil)
}
