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
	case a.h == b.h:
		return innerRef(mk2(np, a, b))
	case a.h > b.h:
		x, y := joinRight(np, a.detach().node(), b.detach())
		if y != nil {
			return innerRef(mk2(np, innerRef(x), innerRef(y)))
		}
		return innerRef(x)
	default:
		x, y := joinLeft(np, b.detach().node(), a.detach())
		if y != nil {
			return innerRef(mk2(np, innerRef(y), innerRef(x)))
		}
		return innerRef(x)
	}
}

// joinRight hangs b (with height(b) < height(a)) below a's rightmost spine.
// It returns one or two nodes of height a.h that together hold all leaves
// in order; when two are returned the second goes to the right.
func joinRight[K cmp.Ordered, P any](np *NodePool[K, P], a *inner[K, P], b ref[K, P]) (x, y *inner[K, P]) {
	last := a.nc - 1
	if a.h > b.h+1 {
		r1, r2 := joinRight(np, a.kid(last).node(), b)
		a.setKid(last, innerRef(r1))
		if r2 == nil {
			refresh(a)
			return a, nil
		}
		b = innerRef(r2)
	}
	// b is one more child for a, after its last.
	if a.nc == 2 {
		a.insertKid(2, b)
		refresh(a)
		return a, nil
	}
	c2 := a.kid(2)
	a.dropKid(2)
	refresh(a)
	return a, mk2(np, c2, b)
}

// joinLeft is the mirror image of joinRight: b with height(b) < height(a)
// is hung below a's leftmost spine. When two nodes are returned the second
// goes to the left.
func joinLeft[K cmp.Ordered, P any](np *NodePool[K, P], a *inner[K, P], b ref[K, P]) (x, y *inner[K, P]) {
	if a.h > b.h+1 {
		r1, r2 := joinLeft(np, a.kid(0).node(), b)
		a.setKid(0, innerRef(r1))
		if r2 == nil {
			refresh(a)
			return a, nil
		}
		b = innerRef(r2)
	}
	// b is one more child for a, before its first.
	if a.nc == 2 {
		a.insertKid(0, b)
		refresh(a)
		return a, nil
	}
	c0 := a.kid(0)
	a.dropKid(0)
	refresh(a)
	return a, mk2(np, b, c0)
}

// splitRank splits t so that l holds the first i leaves and r the rest.
// t is consumed: the spine nodes the split passes through are dropped —
// and recycled into the pool — as their children are redistributed into l
// and r. O(log n).
func splitRank[K cmp.Ordered, P any](np *NodePool[K, P], t ref[K, P], i int) (l, r ref[K, P]) {
	if t.empty() || i <= 0 {
		return l, t.detach()
	}
	if i >= t.size() {
		return t.detach(), r
	}
	// t is a routing node (a leaf has size 1 and was handled above).
	n := t.node()
	ci, i := n.locate(i)
	l, r = splitRank(np, n.kid(ci), i)
	for j := ci - 1; j >= 0; j-- {
		l = join(np, n.kid(j), l)
	}
	for j := ci + 1; j < n.nc; j++ {
		r = join(np, r, n.kid(j))
	}
	np.put(n)
	return l, r
}
