package twothree

import (
	"cmp"
	"math/bits"
	"sort"

	"repro/internal/metrics"
)

// SeqLeaf is a leaf of a recency sequence. Its Key field holds the item's
// map key (used to find the item in a segment's key-map); the sequence
// itself is ordered by recency, not by key.
type SeqLeaf[K cmp.Ordered] = Node[K, struct{}]

// Seq is the recency-map of a segment: a tree ordered by recency (rank
// 0 = most recent, last rank = least recent) supporting the batched
// front/back transfers and reverse indexing that the working-set maps
// perform when shifting items between segments.
//
// Seq reuses the same balanced node machinery as Tree but routes only by
// rank, never by key.
type Seq[K cmp.Ordered] struct {
	root ref[K, struct{}]
	cnt  *metrics.Counter
	pool *NodePool[K, struct{}]
}

// NewSeq returns an empty recency sequence. cnt may be nil.
func NewSeq[K cmp.Ordered](cnt *metrics.Counter) *Seq[K] {
	return &Seq[K]{cnt: cnt}
}

// NewSeqPooled is NewSeq with a node free-list (see Tree.NewPooled):
// internal nodes dropped by pops and rank deletions are recycled through
// pool. pool may be nil.
func NewSeqPooled[K cmp.Ordered](cnt *metrics.Counter, pool *NodePool[K, struct{}]) *Seq[K] {
	return &Seq[K]{cnt: cnt, pool: pool}
}

// Len returns the number of items.
func (s *Seq[K]) Len() int { return s.root.size() }

func (s *Seq[K]) charge(ops int) {
	if s.cnt != nil {
		s.cnt.Add(int64(ops) * int64(s.root.height()+2))
	}
}

// chargeBatch mirrors Tree.chargeBatch for rank-based bulk operations:
// Θ(b·log(n/b + 2) + b) node visits plus one root descent.
func (s *Seq[K]) chargeBatch(b int) {
	if s.cnt == nil || b == 0 {
		return
	}
	n := s.root.size()
	per := bits.Len(uint(n/b+1)) + 2
	s.cnt.Add(int64(b*per) + int64(s.root.height()+2))
}

func seqLeaves[K cmp.Ordered](keys []K) []*SeqLeaf[K] {
	leaves := make([]*SeqLeaf[K], len(keys))
	for i, k := range keys {
		leaves[i] = NewLeaf(k, struct{}{})
	}
	return leaves
}

// PushFront prepends keys so that keys[0] becomes the most recent item.
// Returns the new leaves aligned with keys. O(b + log n).
func (s *Seq[K]) PushFront(keys []K) []*SeqLeaf[K] {
	s.charge(1)
	leaves := seqLeaves(keys)
	s.root = join(s.pool, buildLeaves(s.pool, leaves), s.root)
	return leaves
}

// PushBack appends keys so that the last key becomes the least recent item.
// Returns the new leaves aligned with keys. O(b + log n).
func (s *Seq[K]) PushBack(keys []K) []*SeqLeaf[K] {
	s.charge(1)
	leaves := seqLeaves(keys)
	s.root = join(s.pool, s.root, buildLeaves(s.pool, leaves))
	return leaves
}

// PushFrontLeaves prepends existing leaves (most recent first), preserving
// their identity.
func (s *Seq[K]) PushFrontLeaves(leaves []*SeqLeaf[K]) {
	s.charge(1)
	s.root = join(s.pool, buildLeaves(s.pool, leaves), s.root)
}

// PushBackLeaves appends existing leaves, preserving their identity.
func (s *Seq[K]) PushBackLeaves(leaves []*SeqLeaf[K]) {
	s.charge(1)
	s.root = join(s.pool, s.root, buildLeaves(s.pool, leaves))
}

// PopFront removes the n most recent items and returns them most recent
// first, appended to out[:0] (caller scratch, may be nil).
// O(n + log size).
func (s *Seq[K]) PopFront(n int, out []*SeqLeaf[K]) []*SeqLeaf[K] {
	s.charge(1)
	l, r := splitRank(s.pool, s.root, n)
	s.root = r
	return appendLeavesFree(s.pool, l, out[:0])
}

// PopBack removes the n least recent items and returns them in recency
// order (most recent of the removed items first), appended to out[:0]
// (caller scratch, may be nil). O(n + log size).
func (s *Seq[K]) PopBack(n int, out []*SeqLeaf[K]) []*SeqLeaf[K] {
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
func (s *Seq[K]) RemoveInto(leaves []*SeqLeaf[K], ranks []int, out []*SeqLeaf[K]) []*SeqLeaf[K] {
	if len(leaves) == 0 {
		return out[:0]
	}
	s.chargeBatch(len(leaves))
	for i, lf := range leaves {
		ranks[i] = Rank(lf)
	}
	sort.Ints(ranks)
	d := deleter[K, struct{}]{np: s.pool, ranks: ranks, out: out}
	s.root = d.run(s.root, len(ranks))
	return out
}

// RankOf returns the recency rank of leaf (0 = most recent). O(log n).
func (s *Seq[K]) RankOf(leaf *SeqLeaf[K]) int {
	s.charge(1)
	return Rank(leaf)
}

// Kth returns the leaf at recency rank i, or nil if out of range.
func (s *Seq[K]) Kth(i int) *SeqLeaf[K] {
	if i < 0 || i >= s.root.size() {
		return nil
	}
	s.charge(1)
	return kth(s.root, i)
}

// Flatten returns all leaves in recency order. O(n).
func (s *Seq[K]) Flatten() []*SeqLeaf[K] {
	return appendLeaves(s.root, make([]*SeqLeaf[K], 0, s.Len()))
}

// Keys returns all item keys in recency order. O(n).
func (s *Seq[K]) Keys() []K {
	leaves := s.Flatten()
	keys := make([]K, len(leaves))
	for i, lf := range leaves {
		keys[i] = lf.Key
	}
	return keys
}

// Owns reports whether leaf currently belongs to this sequence, by walking
// its parent chain to the root (test hook; O(log n)).
func (s *Seq[K]) Owns(leaf *SeqLeaf[K]) bool {
	return root(leaf) == s.root
}

// Validate checks structural invariants, ignoring key order (test hook).
func (s *Seq[K]) Validate() error { return validate(s.root, false) }
