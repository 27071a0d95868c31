package twothree

import (
	"cmp"
	"math/bits"
	"sort"

	"repro/internal/metrics"
)

// Seq is the recency-map of a segment: a tree ordered by recency (rank
// 0 = most recent, last rank = least recent) supporting the batched
// front/back transfers and reverse indexing that the working-set maps
// perform when shifting items between segments.
//
// Seq runs the same balanced node machinery as Tree over the same leaf
// type, on the other axis: it routes only by rank, never reads a key, and
// uses the leaves' up[byRank], so its leaves can at the same time be those
// of a Tree — the segment's key-map. It does not make leaves; it is pushed
// the ones its owner built.
type Seq[K cmp.Ordered, P any] struct {
	root ref[K, P]
	cnt  *metrics.Counter
	pool *NodePool[K, P]
}

// NewSeq returns an empty recency sequence. cnt may be nil.
func NewSeq[K cmp.Ordered, P any](cnt *metrics.Counter) *Seq[K, P] {
	return &Seq[K, P]{cnt: cnt}
}

// NewSeqPooled is NewSeq with a node free-list (see Tree.NewPooled):
// internal nodes dropped by pops and rank deletions are recycled through
// pool, which may be the one of the Tree over the same leaves. pool may be
// nil.
func NewSeqPooled[K cmp.Ordered, P any](cnt *metrics.Counter, pool *NodePool[K, P]) *Seq[K, P] {
	return &Seq[K, P]{cnt: cnt, pool: pool}
}

// Len returns the number of items.
func (s *Seq[K, P]) Len() int { return s.root.size() }

func (s *Seq[K, P]) charge(ops int) {
	if s.cnt != nil {
		s.cnt.Add(int64(ops) * int64(s.root.height()+2))
	}
}

// chargeBatch mirrors Tree.chargeBatch for rank-based bulk operations:
// Θ(b·log(n/b + 2) + b) node visits plus one root descent.
func (s *Seq[K, P]) chargeBatch(b int) {
	if s.cnt == nil || b == 0 {
		return
	}
	n := s.root.size()
	per := bits.Len(uint(n/b+1)) + 2
	s.cnt.Add(int64(b*per) + int64(s.root.height()+2))
}

// PushFrontLeaves prepends leaves (most recent first), preserving their
// identity. O(b + log n).
func (s *Seq[K, P]) PushFrontLeaves(leaves []*Node[K, P]) {
	s.charge(1)
	s.root = join(s.pool, buildLeaves(s.pool, leaves, byRank), s.root)
}

// PushBackLeaves appends leaves, preserving their identity. O(b + log n).
func (s *Seq[K, P]) PushBackLeaves(leaves []*Node[K, P]) {
	s.charge(1)
	s.root = join(s.pool, s.root, buildLeaves(s.pool, leaves, byRank))
}

// PopFront removes the n most recent items and returns them most recent
// first, appended to out[:0] (caller scratch, may be nil).
// O(n + log size).
func (s *Seq[K, P]) PopFront(n int, out []*Node[K, P]) []*Node[K, P] {
	s.charge(1)
	l, r := splitRank(s.pool, s.root, n)
	s.root = r
	return appendLeavesFree(s.pool, l, out[:0])
}

// PopBack removes the n least recent items and returns them in recency
// order (most recent of the removed items first), appended to out[:0]
// (caller scratch, may be nil). O(n + log size).
func (s *Seq[K, P]) PopBack(n int, out []*Node[K, P]) []*Node[K, P] {
	s.charge(1)
	l, r := splitRank(s.pool, s.root, s.Len()-n)
	s.root = l
	return appendLeavesFree(s.pool, r, out[:0])
}

// RemoveInto deletes the given leaves (in any order) from the sequence via
// reverse indexing: compute each leaf's rank by a parent walk, sort the
// ranks, and batch-delete. It returns the removed leaves in recency order,
// in out; ranks and out are caller scratch of length len(leaves).
// Θ(b log n) work.
func (s *Seq[K, P]) RemoveInto(leaves []*Node[K, P], ranks []int, out []*Node[K, P]) []*Node[K, P] {
	s.chargeBatch(len(leaves))
	s.root = removeLeaves(s.pool, s.root, byRank, leaves, ranks, out)
	return out[:len(leaves)]
}

// removeLeaves takes leaves out of the tree at root, which holds them on
// axis ax, and returns the new root; out receives them in the tree's order.
func removeLeaves[K cmp.Ordered, P any](np *NodePool[K, P], root ref[K, P], ax axis, leaves []*Node[K, P], ranks []int, out []*Node[K, P]) ref[K, P] {
	for i, lf := range leaves {
		ranks[i] = rank(lf, ax)
	}
	sort.Ints(ranks)
	d := deleter[K, P]{np: np, ranks: ranks, out: out}
	return d.run(root, len(ranks))
}

// RankOf returns the recency rank of leaf (0 = most recent). O(log n).
func (s *Seq[K, P]) RankOf(leaf *Node[K, P]) int {
	s.charge(1)
	return rank(leaf, byRank)
}

// Kth returns the leaf at recency rank i, or nil if out of range.
func (s *Seq[K, P]) Kth(i int) *Node[K, P] {
	if i < 0 || i >= s.root.size() {
		return nil
	}
	s.charge(1)
	return kth(s.root, i)
}

// Flatten returns all leaves in recency order. O(n).
func (s *Seq[K, P]) Flatten() []*Node[K, P] {
	return appendLeaves(s.root, make([]*Node[K, P], 0, s.Len()))
}

// Owns reports whether leaf currently belongs to this sequence, by walking
// its parent chain to the root. leaf must belong to some Seq. O(log n),
// charged as one descent: it is how segments sharing a key-map tell which
// of them holds a leaf found in it.
func (s *Seq[K, P]) Owns(leaf *Node[K, P]) bool {
	s.charge(1)
	return root(leaf, byRank) == s.root
}

// Validate checks structural invariants, ignoring key order (test hook).
func (s *Seq[K, P]) Validate() error { return validate(s.root) }
