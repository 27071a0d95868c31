// Package twothree implements the batched parallel search tree of the
// paper's Appendix A.2, plus the recency sequence used for every segment's
// recency-map. The appendix picks the 2-3 tree of Paul, Vishkin and Wagener;
// nothing in the paper's bounds needs fan-out 3, only height O(log n) and a
// batch descent of Θ(b·log(n/b) + b) visits, and this package keeps both on
// an (a,b)-tree with a = minKids = 8 and b = maxKids = 16. The package name
// and path are the 2-3 tree's because bench/probes.go imports them.
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
// O(log b + log n) of Paul-Vishkin-Wagener, with every work bound intact. join and splitRank (joinsplit.go) serve the recency
// sequence, which only ever changes at its two ends, on the same hang.
//
// Node layout. Leaves and routing nodes are two struct types, so neither
// pays for the other's fields. There is one leaf type, Node — the key, the
// payload and two up-pointers — and it can be a leaf of two trees at once,
// one on each axis: a Tree threads its leaves through up[byKey], a Seq
// through up[byRank], so a working-set segment's key-map and recency-map are
// two sets of routing nodes over one set of leaves, 48 bytes an item with a
// string key and value. A tree reads and writes the up-pointer of its own
// axis only — it knows which from the ax field of its routing nodes and of
// every ref — and a Seq never reads a key: the maxKey of its nodes stays
// zero. A routing node (inner) is a parent pointer, maxKids child
// references, the child count, height, axis, subtree size and subtree
// maximum — 160 bytes with a string key, ten per child slot.
// A routing node's children are all leaves or all routing nodes, and its
// height says which: h == 1 ⇒ the children are leaves, h > 1 ⇒ they are
// routing nodes. Child references are therefore untyped single-word
// pointers (unsafe.Pointer) cast on the parent's height — an interface
// would spend a second word per child on a type the height already gives.
// Every such cast is in this file; the rest of the package works on ref,
// a (pointer, height, axis) handle, and never sees an untyped pointer.
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

// An axis is one of the two orders a leaf can be threaded in at once: a
// Tree's, by key, and a Seq's, by rank.
type axis uint8

const (
	byKey axis = iota
	byRank
)

// Node is a tree leaf: one item's key and payload. Leaves are stable:
// once created, a leaf is identified by its pointer for as long as the item
// is in the tree ("direct pointers" in the paper), even as batch operations
// restructure the routing nodes above it. A leaf may be in one Tree and in
// one Seq at the same time; what either does to it leaves the other's
// up-pointer and order alone.
type Node[K cmp.Ordered, P any] struct {
	Payload P
	Key     K
	up      [2]*inner[K, P] // the leaf's parent on each axis; stale on an axis the leaf is in no tree of
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
	ax     axis                    // which up-pointer of the leaves below is this tree's; fixed at creation
}

// A side is an end of a node's children.
type side bool

const (
	left  side = false
	right side = true
)

// ref is a reference to a subtree: empty, a leaf (h == 0) or a routing node
// (h >= 1), on the axis of the tree it is part of. It lives in tree roots,
// locals and arguments only; nodes store the bare pointer and recover h and
// ax from their own.
type ref[K cmp.Ordered, P any] struct {
	p  unsafe.Pointer
	h  int16 // height of the node p points at; 0 when p is nil
	ax axis
}

func leafRef[K cmp.Ordered, P any](n *Node[K, P], ax axis) ref[K, P] {
	return ref[K, P]{p: unsafe.Pointer(n), ax: ax}
}

func innerRef[K cmp.Ordered, P any](n *inner[K, P]) ref[K, P] {
	return ref[K, P]{p: unsafe.Pointer(n), h: n.h, ax: n.ax}
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

// maxKey returns the maximum key under a non-empty r; the zero key by
// rank, where keys are in no order and are not read.
func (r ref[K, P]) maxKey() (k K) {
	switch {
	case r.ax != byKey:
	case r.h == 0:
		k = r.leaf().Key
	default:
		k = r.node().maxKey
	}
	return k
}

// parent returns the parent pointer of a non-empty r.
func (r ref[K, P]) parent() *inner[K, P] {
	if r.h == 0 {
		return r.leaf().up[r.ax]
	}
	return r.node().parent
}

// setParent points r, if not empty, back at up; nil lets it stand alone as a
// root.
func (r ref[K, P]) setParent(up *inner[K, P]) {
	switch {
	case r.p == nil:
	case r.h == 0:
		r.leaf().up[r.ax] = up
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
	return ref[K, P]{p: n.child[i], h: n.h - 1, ax: n.ax}
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
		ax := n.ax
		for i := int8(0); i < n.nc; i++ {
			(*Node[K, P])(n.child[i]).up[ax] = n
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
	n := np.get(a.h+1, a.ax)
	n.setKids([]ref[K, P]{a, b})
	return n
}

// rank returns the number of leaves strictly before leaf in the
// left-to-right order of the tree it is in on axis ax, by walking parent
// pointers and summing the sizes of left siblings. O(log n). leaf must
// currently belong to such a tree.
func rank[K cmp.Ordered, P any](leaf *Node[K, P], ax axis) int {
	r := 0
	cur := unsafe.Pointer(leaf)
	for p := leaf.up[ax]; p != nil; cur, p = unsafe.Pointer(p), p.parent {
		for i := int8(0); p.child[i] != cur; i++ {
			r += p.kid(i).size()
		}
	}
	return r
}

// root returns the root of the tree leaf currently belongs to on axis ax.
func root[K cmp.Ordered, P any](leaf *Node[K, P], ax axis) ref[K, P] {
	p := leaf.up[ax]
	if p == nil {
		return leafRef(leaf, ax)
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
// pointers on the subtree's axis are overwritten on the next insertion,
// exactly as with the non-freeing walk).
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
	h, ax := kids[0].h+1, kids[0].ax
	w := 0
	for i := 0; i < len(kids); w++ {
		n := first
		first = nil
		if n == nil {
			n = np.get(h, ax)
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

// buildLeaves constructs a balanced tree over the given leaves (in order)
// on axis ax and returns its root (empty for an empty slice). O(b) work. Each level is
// grouped left to right as group does it; a level is written over the front
// of the previous one, which it can never overtake, so one buffer of a
// sixteenth of the leaf count serves every level.
func buildLeaves[K cmp.Ordered, P any](np *NodePool[K, P], leaves []*Node[K, P], ax axis) ref[K, P] {
	switch len(leaves) {
	case 0:
		return ref[K, P]{}
	case 1:
		return leafRef(leaves[0], ax).detach()
	}
	var stack [buildStack]ref[K, P]
	level := stack[:0]
	if need := len(leaves)/maxKids + 1; need > buildStack {
		level = make([]ref[K, P], 0, need)
	}
	for i := 0; i < len(leaves); {
		n := np.get(1, ax)
		g := take(len(leaves) - i)
		for j, lf := range leaves[i : i+g] {
			n.child[j] = unsafe.Pointer(lf)
		}
		n.nc = int8(g)
		refresh(n)
		level = append(level, innerRef(n))
		i += g
	}
	for len(level) > 1 {
		level = level[:group(np, nil, level)]
	}
	return level[0]
}

// validate checks structural invariants below r: uniform leaf depth,
// minKids..maxKids children below the root and 2..maxKids at it, no child
// pointer past the count, one axis throughout, size and maxKey caching (by
// rank: no maxKey), and parent pointers — of the leaves, the one on r's axis
// and not the other. By key it additionally checks that leaf keys are
// strictly increasing.
func validate[K cmp.Ordered, P any](r ref[K, P]) error {
	ordered := r.ax == byKey
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
			if lf.up[r.ax] != up {
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
		if n.h != r.h || n.ax != r.ax {
			return fmt.Errorf("node of height %d, axis %d reached as height %d, axis %d", n.h, n.ax, r.h, r.ax)
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
