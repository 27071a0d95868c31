package twothree

import "cmp"

// join concatenates two trees a and b (all leaves of a before all leaves of
// b) and returns the root of the result. It runs in O(|height(a)-height(b)|
// + 1) time, mutating spine nodes in place so that leaf identities (and
// their parent chains) remain valid.
func join[K cmp.Ordered, P any](np *NodePool[K, P], a, b ref[K, P]) ref[K, P] {
	switch {
	case a.empty():
		return b.detach()
	case b.empty():
		return a.detach()
	case a.h == 0 && b.h == 0:
		return innerRef(mk2(np, a, b))
	}
	// The lower tree is hung at the end of the higher that faces it.
	high, low, s := a.detach(), b.detach(), right
	if a.h < b.h {
		high, low, s = b, a, left
	}
	x := high.node()
	y := hang(np, x, low, s)
	switch {
	case y == nil:
		return high
	case s == left:
		x, y = y, x
	}
	return innerRef(mk2(np, innerRef(x), innerRef(y)))
}

// hang puts the tree b — a leaf, or a root with two children or more, no
// higher than a — at the s end of the leaves of a's subtree. What a cannot
// hold is returned in a second node of a's height, to go beside a on that
// side; nil when a holds everything. a keeps its parent pointer, the second
// node's is the caller's to set.
//
// b ends up beside the node of its own height on a's s spine when it is thin
// (the two merge, or share their children evenly when one node cannot hold
// them), and as one more child of the spine node a level above when it is
// not; a node that overflows splits the same way, and the half it cannot
// keep goes up as b did. With a's children, and all nodes below them, at
// minKids or more, everything under a and the second node is again, and so
// is either of the two if a was, or if there are two.
func hang[K cmp.Ordered, P any](np *NodePool[K, P], a *inner[K, P], b ref[K, P], s side) *inner[K, P] {
	if a.h == b.h {
		return balance(np, a, b.node(), s)
	}
	size, top := b.size(), b.maxKey()
	if !b.whole(a.h) {
		// b belongs further down: only what a's end child cannot hold, if
		// anything, is a child for a.
		more := hang(np, a.edge(s).node(), b, s)
		if more == nil {
			a.grow(size, top, s)
			return nil
		}
		b = innerRef(more)
	}
	if a.nc < maxKids {
		a.addKid(s, b)
		a.grow(size, top, s)
		return nil
	}
	// a is full: b becomes the only child of a new node, which then takes
	// half of a's.
	y := np.get(a.h)
	y.setKids([]ref[K, P]{b})
	a.setSize(int(a.size) + size - b.size()) // a's end child took what of b is not in y
	return balance(np, a, y, s)
}

// grow accounts for size leaves, the highest of them top, that were added
// at the s end of n's subtree.
func (n *inner[K, P]) grow(size int, top K, s side) {
	n.setSize(int(n.size) + size)
	if s == right {
		n.maxKey = top
	}
}

// balance moves children between a and b, routing nodes of one height with
// b's leaves next to a's on the s side: all of b's to a if the two have
// fewer than two nodes need (b is recycled and nil returned), and otherwise
// from the one with more to the one with fewer until they are level (b is
// returned). Two that could be one full node stay two: a node filled to the
// brim splits at the next insert, and a batch that goes in and comes out
// again would split and merge the same nodes every time.
func balance[K cmp.Ordered, P any](np *NodePool[K, P], a, b *inner[K, P], s side) *inner[K, P] {
	l, r := a, b
	if s == left {
		l, r = b, a
	}
	total := l.nc + r.nc
	if total < 2*minKids {
		pour(l, r, b.nc, !s) // towards a
		np.put(b)
		return nil
	}
	if keep := total / 2; l.nc > keep {
		pour(l, r, l.nc-keep, right)
	} else {
		pour(l, r, keep-l.nc, left)
	}
	return b
}
