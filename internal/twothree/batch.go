package twothree

import (
	"cmp"

	"repro/internal/parallel"
)

// batchGrain is the batch size from which a batch kernel forks the
// recursions into a routing node's children onto separate goroutines
// (they work on disjoint subtrees). The forked step is a function of its
// own, so the variables its closures capture are heap-allocated only when
// a step does fork.
const batchGrain = 384

// forkStack is the capacity a forked insert branch's stack starts with: a
// few levels of pending children and the leaves of a well-filled node.
const forkStack = 8 * maxKids

// upperBound returns the first index of the sorted s whose element exceeds
// x, len(s) when none does.
func upperBound[T cmp.Ordered](s []T, x T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); s[m] > x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// partition deals the sorted keys to n's children: child ci takes
// keys[lo[ci]:lo[ci+1]], those above the maximum of the child before it and
// not above its own. A routing child's maximum is no bound for the last
// child, which takes every remaining key; leaf children (n.h == 1) are all
// bounded, so a share's last key is the only one that can equal its leaf's
// and keys[lo[n.nc]:] are above every leaf. The child a share starts in is
// found by binary search over the children after the last one dealt to, so
// a share of one key reads log2(maxKids) children, not all of them, and
// children after the one that exhausts the batch are not looked at.
func (n *inner[K, P]) partition(keys []K) (lo [maxKids + 1]int) {
	bounded := n.nc
	if n.h > 1 {
		bounded--
	}
	p, ci := 0, int8(0) // lo[ci] == p: keys[:p] are dealt, to the children before ci
	for p < len(keys) && ci < bounded {
		c := n.routeIn(ci, bounded, keys[p])
		for ; ci < c; ci++ {
			lo[ci+1] = p
		}
		if c == bounded {
			break
		}
		p += upperBound(keys[p:], n.maxAt(c))
		ci++
		lo[ci] = p
	}
	for ; ci < bounded; ci++ {
		lo[ci+1] = p
	}
	if n.h > 1 {
		lo[n.nc] = len(keys)
	}
	return lo
}

// partitionRanks is partition for sorted 0-based ranks, off being the rank
// of n's first leaf: child ci, whose first leaf has rank at[ci], takes
// ranks[lo[ci]:lo[ci+1]]. n.h > 1, and every rank is below off+n.size.
func (n *inner[K, P]) partitionRanks(ranks []int, off int) (lo [maxKids + 1]int, at [maxKids]int) {
	last := n.nc - 1
	for ci := int8(0); ci < last; ci++ {
		at[ci] = off
		if lo[ci] == len(ranks) {
			lo[ci+1] = len(ranks)
			continue
		}
		off += n.kid(ci).size()
		lo[ci+1] = lo[ci] + upperBound(ranks[lo[ci]:], off-1)
	}
	at[last], lo[n.nc] = off, len(ranks)
	return lo, at
}

// forkAt decides whether the visits to the children ci..cj-1 of a node,
// which partition dealt keys[lo[ci]:lo[cj]], fork: with batchGrain keys or
// more they do, into the children before the returned index, which were
// dealt about half of the keys, and those from it on. 0 means no fork: too
// few keys, or all of them one child's. Halving by keys rather than forking
// once per child keeps a branch's share near batchGrain whatever the number
// of children, so a batch forks keys/batchGrain ways, up to maxKids a node.
func forkAt(lo *[maxKids + 1]int, ci, cj int8) int8 {
	keys := lo[cj] - lo[ci]
	if keys < batchGrain {
		return 0
	}
	mid := ci + 1
	for mid < cj-1 && lo[mid]-lo[ci] < keys/2 {
		mid++
	}
	if lo[mid] == lo[ci] || lo[mid] == lo[cj] {
		return 0
	}
	return mid
}

// matchLeaf returns the index in the sorted keys of lf's key, -1 if absent.
func matchLeaf[K cmp.Ordered, P any](lf *Node[K, P], keys []K) int {
	if i := upperBound(keys, lf.Key); i > 0 && keys[i-1] == lf.Key {
		return i - 1
	}
	return -1
}

// batchGet stores in out, aligned with the sorted keys, the leaves under
// the routing node n that hold them. It descends once: every node
// partitions its share of the batch among its children and only children
// with a share are visited.
func batchGet[K cmp.Ordered, P any](n *inner[K, P], keys []K, out []*Node[K, P]) {
	lo := n.partition(keys)
	if n.h > 1 {
		batchGetKids(n, keys, out, &lo, 0, n.nc)
		return
	}
	for ci := int8(0); ci < n.nc; ci++ {
		if hi := lo[ci+1]; hi > lo[ci] {
			if lf := n.kid(ci).leaf(); keys[hi-1] == lf.Key {
				out[hi-1] = lf
			}
		}
	}
}

// batchGetKids is batchGet's step into the children ci..cj-1 of n.
func batchGetKids[K cmp.Ordered, P any](n *inner[K, P], keys []K, out []*Node[K, P], lo *[maxKids + 1]int, ci, cj int8) {
	if mid := forkAt(lo, ci, cj); mid > 0 {
		batchGetForked(n, keys, out, *lo, ci, mid, cj)
		return
	}
	for ; ci < cj; ci++ {
		if lo[ci+1] > lo[ci] {
			batchGet(n.kid(ci).node(), keys[lo[ci]:lo[ci+1]], out[lo[ci]:lo[ci+1]])
		}
	}
}

func batchGetForked[K cmp.Ordered, P any](n *inner[K, P], keys []K, out []*Node[K, P], lo [maxKids + 1]int, ci, mid, cj int8) {
	parallel.Do(
		func() { batchGetKids(n, keys, out, &lo, ci, mid) },
		func() { batchGetKids(n, keys, out, &lo, mid, cj) })
}

// inserter is one sequential run of the insert kernel: the batch — sorted
// distinct keys, each with its leaf in lv — and the stack the run builds
// its node lists on. With items nil the leaves are pre-built and every key
// must be absent from the tree; otherwise (upsert) a present key's leaf
// takes the item's payload, an absent key gets a new leaf, and lv receives
// either.
type inserter[K cmp.Ordered, P any] struct {
	np    *NodePool[K, P]
	keys  []K
	lv    []*Node[K, P]
	items []Item[K, P]
	stack []ref[K, P]
	high  int // the longest stack has been, for clearing it
}

// pushNew pushes the leaves of keys[a:z], none of which is in the tree,
// pointing them at up, the node whose children they are if it does not
// split.
func (s *inserter[K, P]) pushNew(up *inner[K, P], a, z int) {
	for i := a; i < z; i++ {
		if s.items != nil {
			s.lv[i] = NewLeaf(s.items[i].Key, s.items[i].Payload)
		}
		s.lv[i].up[byKey] = up
		s.stack = append(s.stack, leafRef(s.lv[i], byKey))
	}
}

// place pushes the leaves of keys[a:z], none of which exceeds the key of
// e, a leaf of the tree under up, and then e; a key equal to e's is not new.
func (s *inserter[K, P]) place(up *inner[K, P], e *Node[K, P], a, z int) {
	if z > a && s.keys[z-1] == e.Key {
		if s.items == nil {
			panic("twothree: BatchInsertLeaves: key already present")
		}
		z--
		e.Payload = s.items[z].Payload
		s.lv[z] = e
	}
	s.pushNew(up, a, z)
	s.stack = append(s.stack, leafRef(e, byKey))
}

// adopt points the routing nodes on the stack from at on at n: the new
// nodes a child of n's pushed after itself, n's children if n does not
// split.
func (s *inserter[K, P]) adopt(n *inner[K, P], at int) {
	for _, r := range s.stack[at:] {
		r.node().parent = n
	}
}

// insert adds keys[a:z] to the subtree n and pushes the nodes of n's height
// that now hold the subtree's leaves, in order: n itself, followed by new
// nodes if the leaves no longer fit under one. It returns the number of
// leaves added. Only children that a key routes to are visited; a node
// whose children are the ones it had is updated by the count alone, and one
// that has room for the new ones besides reads none of those it had.
func (s *inserter[K, P]) insert(n *inner[K, P], a, z int) (added int) {
	base := len(s.stack)
	lo := n.partition(s.keys[a:z])
	if n.h == 1 {
		for ci := int8(0); ci < n.nc; ci++ {
			s.place(n, n.kid(ci).leaf(), a+lo[ci], a+lo[ci+1])
		}
		s.pushNew(n, a+lo[n.nc], z)
		added = len(s.stack) - base - int(n.nc)
	} else {
		added = s.insertKids(n, a, &lo, 0, n.nc)
	}
	s.high = max(s.high, len(s.stack))
	kids := s.stack[base:]
	if len(kids) > maxKids {
		s.stack = s.stack[:base+group(s.np, n, kids)]
		return added
	}
	if len(kids) != int(n.nc) {
		n.putKids(kids)
	}
	n.setSize(int(n.size) + added)
	n.maxKey = max(n.maxKey, s.keys[z-1])
	s.stack = append(s.stack[:base], innerRef(n))
	return added
}

// insertKids is insert's step into the children ci..cj-1 of the routing
// node n: it pushes, for each in turn, the child itself if it has no share
// and otherwise what insert pushes for it.
func (s *inserter[K, P]) insertKids(n *inner[K, P], a int, lo *[maxKids + 1]int, ci, cj int8) (added int) {
	if mid := forkAt(lo, ci, cj); mid > 0 {
		return s.insertForked(n, a, *lo, ci, mid, cj)
	}
	for ; ci < cj; ci++ {
		if c := n.kid(ci); lo[ci+1] > lo[ci] {
			at := len(s.stack)
			added += s.insert(c.node(), a+lo[ci], a+lo[ci+1])
			s.adopt(n, at+1)
		} else {
			s.stack = append(s.stack, c)
		}
	}
	return added
}

// insertForked is insertKids on two goroutines, each building its list on
// a stack of its own.
func (s *inserter[K, P]) insertForked(n *inner[K, P], a int, lo [maxKids + 1]int, ci, mid, cj int8) int {
	var subs [2]inserter[K, P]
	var adds [2]int
	for i := range subs {
		subs[i] = inserter[K, P]{np: s.np, keys: s.keys, lv: s.lv, items: s.items, stack: make([]ref[K, P], 0, forkStack)}
	}
	parallel.Do(
		func() { adds[0] = subs[0].insertKids(n, a, &lo, ci, mid) },
		func() { adds[1] = subs[1].insertKids(n, a, &lo, mid, cj) })
	s.stack = append(append(s.stack, subs[0].stack...), subs[1].stack...)
	return adds[0] + adds[1]
}

// run inserts the whole batch into the tree at root and returns the new
// root.
func (s *inserter[K, P]) run(root ref[K, P]) ref[K, P] {
	switch {
	case root.empty():
		s.pushNew(nil, 0, len(s.keys))
	case root.isLeaf():
		z := upperBound(s.keys, root.leaf().Key)
		s.place(nil, root.leaf(), 0, z)
		s.pushNew(nil, z, len(s.keys))
	default:
		s.insert(root.node(), 0, len(s.keys))
	}
	s.high = max(s.high, len(s.stack))
	for len(s.stack) > 1 {
		s.stack = s.stack[:group(s.np, nil, s.stack)]
	}
	root = s.stack[0].detach()
	clear(s.stack[:s.high])
	return root
}

// deleter is one run of the delete kernel over a batch of sorted distinct
// keys or, when ranks is not nil, sorted distinct 0-based ranks; out,
// aligned with the batch, receives the removed leaves. It is not changed
// by the run, so forked steps share it.
type deleter[K cmp.Ordered, P any] struct {
	np    *NodePool[K, P]
	keys  []K
	ranks []int
	out   []*Node[K, P]
}

// del removes the leaves that batch[a:z] selects from the subtree n, whose
// first leaf has rank off, and returns what is left and the number of
// leaves removed. What is left is n itself while it keeps two children or
// more — whole ones; n may be thin, which is its parent's to repair — and
// otherwise (n recycled) its only child, a tree shorter than n, or nothing.
// Only children the batch routes to are visited, and a node whose children
// all stay is updated by the count alone.
func (d *deleter[K, P]) del(n *inner[K, P], a, z, off int) (rest ref[K, P], gone int) {
	if n.h == 1 {
		return d.delLeaves(n, a, z, off)
	}
	var lo [maxKids + 1]int
	var at [maxKids]int
	if d.ranks != nil {
		lo, at = n.partitionRanks(d.ranks[a:z], off)
	} else {
		lo = n.partition(d.keys[a:z])
	}
	var res [maxKids]ref[K, P]
	gone = d.delKids(n, a, &lo, &at, &res, 0, n.nc)
	if gone == 0 {
		return innerRef(n), 0
	}
	for ci := int8(0); ci < n.nc; ci++ {
		if lo[ci+1] > lo[ci] && !res[ci].whole(n.h) {
			return repair(d.np, n, &res, &lo, gone), gone
		}
	}
	// Every child is left as itself.
	n.size -= int32(gone)
	if last := n.nc - 1; lo[last+1] > lo[last] {
		n.maxKey = res[last].maxKey()
	}
	return innerRef(n), gone
}

// delLeaves is del under a node whose children are leaves.
func (d *deleter[K, P]) delLeaves(n *inner[K, P], a, z, off int) (rest ref[K, P], gone int) {
	var lo [maxKids + 1]int
	if d.ranks == nil {
		lo = n.partition(d.keys[a:z])
	}
	var keep [maxKids]ref[K, P]
	k := 0
	for ci := int8(0); ci < n.nc; ci++ {
		c := n.kid(ci)
		lf := c.leaf()
		switch {
		case d.ranks != nil && a < z && d.ranks[a] == off+int(ci):
			d.out[a] = lf
			a++
		case d.ranks == nil && lo[ci+1] > lo[ci] && d.keys[a+lo[ci+1]-1] == lf.Key:
			d.out[a+lo[ci+1]-1] = lf
		default:
			keep[k] = c
			k++
		}
	}
	switch gone = int(n.nc) - k; {
	case gone == 0:
	case k >= 2:
		n.putKids(keep[:k])
		n.size, n.maxKey = int32(k), keep[k-1].maxKey()
	default: // keep[0] is empty if no leaf is left
		d.np.put(n)
		return keep[0], gone
	}
	return innerRef(n), gone
}

// delKids is del's step into the children ci..cj-1 of the routing node n:
// res receives what is left of each, the child itself if it has no share.
func (d *deleter[K, P]) delKids(n *inner[K, P], a int, lo *[maxKids + 1]int, at *[maxKids]int, res *[maxKids]ref[K, P], ci, cj int8) (gone int) {
	if mid := forkAt(lo, ci, cj); mid > 0 {
		var forked [maxKids]ref[K, P]
		forked, gone = d.delForked(n, a, *lo, *at, ci, mid, cj)
		copy(res[ci:cj], forked[ci:cj])
		return gone
	}
	for ; ci < cj; ci++ {
		res[ci] = n.kid(ci)
		if lo[ci+1] > lo[ci] {
			var g int
			res[ci], g = d.del(res[ci].node(), a+lo[ci], a+lo[ci+1], at[ci])
			gone += g
		}
	}
	return gone
}

// delForked is delKids on two goroutines. They share a copy of d, and the
// arrays are its own, so that a run which never forks keeps its deleter and
// every step's arrays off the heap.
func (d deleter[K, P]) delForked(n *inner[K, P], a int, lo [maxKids + 1]int, at [maxKids]int, ci, mid, cj int8) (res [maxKids]ref[K, P], gone int) {
	var more int
	parallel.Do(
		func() { gone = d.delKids(n, a, &lo, &at, &res, ci, mid) },
		func() { more = d.delKids(n, a, &lo, &at, &res, mid, cj) })
	return res, gone + more
}

// repair gives the routing node n, from under which deletions took gone
// leaves, whole children again. res is what is left of each child: nothing,
// the child itself — whole, or thin, or untouched if lo gave it no share —
// or a tree shorter than a child. What is not whole is hung under the whole
// node before it (after it, for what comes before the first), which may
// split that node in two, and n keeps the nodes that result. They number no
// more than the children did: each tree that splits a node was a child
// itself. n is returned while it keeps two of them, thin or not; otherwise
// it is recycled and its only child, or the tree the remnants made, or
// nothing is returned in its place.
func repair[K cmp.Ordered, P any](np *NodePool[K, P], n *inner[K, P], res *[maxKids]ref[K, P], lo *[maxKids + 1]int, gone int) ref[K, P] {
	var kids [maxKids]ref[K, P]
	k := 0
	push := func(x *inner[K, P]) {
		if x != nil {
			x.parent = n
			kids[k] = innerRef(x)
			k++
		}
	}
	var short ref[K, P] // what came before the first whole node, joined up
	for ci, r := range res[:n.nc] {
		asIs := lo[ci+1] == lo[ci] || r.whole(n.h)
		switch {
		case r.empty():
		case asIs:
			if !short.empty() {
				push(hang(np, r.node(), short, left))
				short = ref[K, P]{}
			}
			kids[k] = r
			k++
		case k > 0:
			push(hang(np, kids[k-1].node(), r, right))
		default:
			if short = join(np, short, r); short.whole(n.h) {
				push(short.node())
				short = ref[K, P]{}
			}
		}
	}
	if k < 2 {
		np.put(n)
		if k == 1 {
			return kids[0]
		}
		return short
	}
	n.putKids(kids[:k])
	n.size -= int32(gone)
	n.maxKey = kids[k-1].maxKey()
	return innerRef(n)
}

// run deletes the batch of b keys or ranks from the tree at root and
// returns the new root.
func (d *deleter[K, P]) run(root ref[K, P], b int) ref[K, P] {
	switch {
	case root.empty() || b == 0:
		return root
	case root.isLeaf():
		i := 0 // by rank, the only leaf is rank 0
		if d.ranks == nil {
			i = matchLeaf(root.leaf(), d.keys)
		}
		if i < 0 {
			return root
		}
		d.out[i] = root.leaf()
		return ref[K, P]{}
	}
	rest, _ := d.del(root.node(), 0, b, 0)
	return rest.detach()
}
