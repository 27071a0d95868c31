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
// and keys[lo[n.nc]:] are above every leaf. Children after the one that
// exhausts the batch are not looked at.
func (n *inner[K, P]) partition(keys []K) (lo [4]int) {
	bounded := n.nc
	if n.h > 1 {
		bounded--
		lo[n.nc] = len(keys)
	}
	for ci := int8(0); ci < bounded; ci++ {
		if lo[ci] == len(keys) {
			lo[ci+1] = len(keys)
			continue
		}
		lo[ci+1] = lo[ci] + upperBound(keys[lo[ci]:], n.kid(ci).maxKey())
	}
	return lo
}

// partitionRanks is partition for sorted 0-based ranks, off being the rank
// of n's first leaf: child ci, whose first leaf has rank at[ci], takes
// ranks[lo[ci]:lo[ci+1]]. n.h > 1, and every rank is below off+n.size.
func (n *inner[K, P]) partitionRanks(ranks []int, off int) (lo [4]int, at [3]int) {
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

// shares counts the children of a node with nc children that partition
// dealt any keys.
func shares(lo *[4]int, nc int8) (s int) {
	for ci := int8(0); ci < nc; ci++ {
		if lo[ci+1] > lo[ci] {
			s++
		}
	}
	return s
}

// forkJoin runs two or three functions in parallel.
func forkJoin(fns []func()) {
	if len(fns) == 2 {
		parallel.Do(fns[0], fns[1])
	} else {
		parallel.Do3(fns[0], fns[1], fns[2])
	}
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
	for {
		lo := n.partition(keys)
		if n.h == 1 {
			for ci := int8(0); ci < n.nc; ci++ {
				if hi := lo[ci+1]; hi > lo[ci] {
					if lf := n.kid(ci).leaf(); keys[hi-1] == lf.Key {
						out[hi-1] = lf
					}
				}
			}
			return
		}
		if shares(&lo, n.nc) > 1 {
			if len(keys) >= batchGrain {
				batchGetForked(n, keys, out, &lo)
				return
			}
			for ci := int8(0); ci < n.nc; ci++ {
				if lo[ci+1] > lo[ci] {
					batchGet(n.kid(ci).node(), keys[lo[ci]:lo[ci+1]], out[lo[ci]:lo[ci+1]])
				}
			}
			return
		}
		// One child takes the whole batch: descend without recursing.
		ci := int8(0)
		for lo[ci+1] == lo[ci] {
			ci++
		}
		n = n.kid(ci).node()
	}
}

func batchGetForked[K cmp.Ordered, P any](n *inner[K, P], keys []K, out []*Node[K, P], lo *[4]int) {
	var fns [3]func()
	nf := 0
	for ci := int8(0); ci < n.nc; ci++ {
		if lo[ci+1] > lo[ci] {
			c, ks, os := n.kid(ci).node(), keys[lo[ci]:lo[ci+1]], out[lo[ci]:lo[ci+1]]
			fns[nf] = func() { batchGet(c, ks, os) }
			nf++
		}
	}
	forkJoin(fns[:nf])
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

// pushNew pushes the leaves of keys[a:z], none of which is in the tree.
func (s *inserter[K, P]) pushNew(a, z int) {
	for i := a; i < z; i++ {
		if s.items != nil {
			s.lv[i] = NewLeaf(s.items[i].Key, s.items[i].Payload)
		}
		s.stack = append(s.stack, leafRef(s.lv[i]))
	}
}

// place pushes the leaves of keys[a:z], none of which exceeds the key of
// the tree's leaf e, and then e; a key equal to e's is not new.
func (s *inserter[K, P]) place(e *Node[K, P], a, z int) {
	if z > a && s.keys[z-1] == e.Key {
		if s.items == nil {
			panic("twothree: BatchInsertLeaves: key already present")
		}
		z--
		e.Payload = s.items[z].Payload
		s.lv[z] = e
	}
	s.pushNew(a, z)
	s.stack = append(s.stack, leafRef(e))
}

// insert adds keys[a:z] to the subtree n and pushes the nodes of n's height
// that now hold the subtree's leaves, in order: n itself, followed by new
// nodes if the leaves no longer fit under one. It returns the number of
// leaves added. Only children that a key routes to are visited; a node
// whose children are the ones it had is updated by the count alone.
func (s *inserter[K, P]) insert(n *inner[K, P], a, z int) (added int) {
	base := len(s.stack)
	lo := n.partition(s.keys[a:z])
	switch {
	case n.h == 1:
		for ci := int8(0); ci < n.nc; ci++ {
			s.place(n.kid(ci).leaf(), a+lo[ci], a+lo[ci+1])
		}
		s.pushNew(a+lo[n.nc], z)
		added = len(s.stack) - base - int(n.nc)
	case z-a >= batchGrain && shares(&lo, n.nc) > 1:
		added = s.insertForked(n, a, &lo)
	default:
		for ci := int8(0); ci < n.nc; ci++ {
			if c := n.kid(ci); lo[ci+1] > lo[ci] {
				added += s.insert(c.node(), a+lo[ci], a+lo[ci+1])
			} else {
				s.stack = append(s.stack, c)
			}
		}
	}
	s.high = max(s.high, len(s.stack))
	if len(s.stack)-base == int(n.nc) {
		// Every child was replaced by itself alone.
		n.size += added
		n.maxKey = max(n.maxKey, s.keys[z-1])
		s.stack = append(s.stack[:base], innerRef(n))
	} else {
		s.stack = s.stack[:base+group(s.np, n, s.stack[base:])]
	}
	return added
}

// insertForked is insert's step into the children of the routing node n,
// one goroutine per child with a share, each building its list on a stack
// of its own.
func (s *inserter[K, P]) insertForked(n *inner[K, P], a int, lo *[4]int) (added int) {
	var subs [3]inserter[K, P]
	var adds [3]int
	var fns [3]func()
	nf := 0
	for ci := int8(0); ci < n.nc; ci++ {
		if lo[ci+1] > lo[ci] {
			subs[ci] = inserter[K, P]{np: s.np, keys: s.keys, lv: s.lv, items: s.items}
			c, sub, add, ca, cz := n.kid(ci).node(), &subs[ci], &adds[ci], a+lo[ci], a+lo[ci+1]
			fns[nf] = func() { *add = sub.insert(c, ca, cz) }
			nf++
		}
	}
	forkJoin(fns[:nf])
	for ci := int8(0); ci < n.nc; ci++ {
		if lo[ci+1] > lo[ci] {
			s.stack = append(s.stack, subs[ci].stack...)
			added += adds[ci]
		} else {
			s.stack = append(s.stack, n.kid(ci))
		}
	}
	return added
}

// run inserts the whole batch into the tree at root and returns the new
// root.
func (s *inserter[K, P]) run(root ref[K, P]) ref[K, P] {
	switch {
	case root.empty():
		s.pushNew(0, len(s.keys))
	case root.isLeaf():
		z := upperBound(s.keys, root.leaf().Key)
		s.place(root.leaf(), 0, z)
		s.pushNew(z, len(s.keys))
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
// first leaf has rank off, and returns what is left — n itself while it
// keeps two or three children of its height less one, otherwise (n
// recycled) a shorter 2-3 tree or nothing — and the number of leaves
// removed. Only children the batch routes to are visited, and a node whose
// children all stay is updated by the count alone.
func (d *deleter[K, P]) del(n *inner[K, P], a, z, off int) (rest ref[K, P], gone int) {
	if n.h == 1 {
		return d.delLeaves(n, a, z, off)
	}
	var lo [4]int
	var at [3]int
	if d.ranks != nil {
		lo, at = n.partitionRanks(d.ranks[a:z], off)
	} else {
		lo = n.partition(d.keys[a:z])
	}
	var res [3]ref[K, P]
	if z-a >= batchGrain && shares(&lo, n.nc) > 1 {
		res, gone = d.delForked(n, a, &lo, &at)
	} else {
		for ci := int8(0); ci < n.nc; ci++ {
			res[ci] = n.kid(ci)
			if lo[ci+1] > lo[ci] {
				var g int
				res[ci], g = d.del(res[ci].node(), a+lo[ci], a+lo[ci+1], at[ci])
				gone += g
			}
		}
	}
	if gone == 0 {
		return innerRef(n), 0
	}
	for _, r := range res[:n.nc] {
		if r.empty() || r.h != n.h-1 {
			return rebuild(d.np, n, res[:n.nc]), gone
		}
	}
	// Every child is left as itself.
	n.size -= gone
	if last := n.nc - 1; lo[last+1] > lo[last] {
		n.maxKey = res[last].maxKey()
	}
	return innerRef(n), gone
}

// delLeaves is del under a node whose children are leaves.
func (d *deleter[K, P]) delLeaves(n *inner[K, P], a, z, off int) (rest ref[K, P], gone int) {
	var lo [4]int
	if d.ranks == nil {
		lo = n.partition(d.keys[a:z])
	}
	var keep [3]ref[K, P]
	k := 0
	for ci := int8(0); ci < n.nc; ci++ {
		lf := n.kid(ci).leaf()
		switch {
		case d.ranks != nil && a < z && d.ranks[a] == off+int(ci):
			d.out[a] = lf
			a++
		case d.ranks == nil && lo[ci+1] > lo[ci] && d.keys[a+lo[ci+1]-1] == lf.Key:
			d.out[a+lo[ci+1]-1] = lf
		default:
			keep[k] = leafRef(lf)
			k++
		}
	}
	if gone = int(n.nc) - k; gone == 0 {
		return innerRef(n), 0
	}
	return remake(d.np, n, keep[:k]), gone
}

// delForked is del's step into the children of the routing node n, one
// goroutine per child with a share. The goroutines share a copy of d, so
// that a run which never forks keeps its deleter off the heap.
func (d deleter[K, P]) delForked(n *inner[K, P], a int, lo *[4]int, at *[3]int) (res [3]ref[K, P], gone int) {
	var gones [3]int
	var fns [3]func()
	nf := 0
	for ci := int8(0); ci < n.nc; ci++ {
		res[ci] = n.kid(ci)
		if lo[ci+1] > lo[ci] {
			c, r, g, ca, cz, off := res[ci].node(), &res[ci], &gones[ci], a+lo[ci], a+lo[ci+1], at[ci]
			fns[nf] = func() { *r, *g = d.del(c, ca, cz, off) }
			nf++
		}
	}
	forkJoin(fns[:nf])
	return res, gones[0] + gones[1] + gones[2]
}

// remake gives n the children kids — at most three 2-3 trees of height
// n.h-1, in order — and returns it, if they are enough for a node; a lone
// child, or nothing, is returned in its place and n recycled.
func remake[K cmp.Ordered, P any](np *NodePool[K, P], n *inner[K, P], kids []ref[K, P]) ref[K, P] {
	if len(kids) >= 2 {
		n.setKids(kids)
		return innerRef(n)
	}
	np.put(n)
	if len(kids) == 1 {
		return kids[0]
	}
	return ref[K, P]{}
}

// rebuild repairs the routing node n after deletions left its children as
// res, some of them empty or shorter than a child of n: a shorter tree is
// hung under the spine of the node beside it (the one before it, if there
// is one), which may split that node in two, and n keeps the nodes that
// result. They number at most three: each tree that splits a node was a
// child itself.
func rebuild[K cmp.Ordered, P any](np *NodePool[K, P], n *inner[K, P], res []ref[K, P]) ref[K, P] {
	var kids [3]ref[K, P]
	k := 0
	push := func(x *inner[K, P]) {
		if x != nil {
			kids[k] = innerRef(x)
			k++
		}
	}
	var short ref[K, P] // what came before the first node, joined up
	for _, r := range res {
		switch {
		case r.empty():
		case r.h < n.h-1 && k > 0:
			k--
			x, y := joinRight(np, kids[k].node(), r)
			push(x)
			push(y)
		case r.h < n.h-1:
			if short = join(np, short, r); short.h == n.h-1 {
				push(short.node())
				short = ref[K, P]{}
			}
		case !short.empty():
			x, y := joinLeft(np, r.node(), short)
			push(y)
			push(x)
			short = ref[K, P]{}
		default:
			push(r.node())
		}
	}
	if k == 0 {
		np.put(n)
		return short
	}
	return remake(np, n, kids[:k])
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
