package core

import (
	"cmp"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// segLeaf is a resident item: one heap object holding the key and the
// value, and a leaf of both trees of the segment it is in — the key-map
// through one of its two up-pointers, the recency-map through the other.
// A direct pointer to it is the paper's cross pointer in both directions.
type segLeaf[K cmp.Ordered, V any] = twothree.Node[K, V]

// capOf returns segment S[k]'s capacity 2^(2^k), saturating for k >= 6
// (2^64 overflows; no laptop-scale experiment reaches segment 6).
func capOf(k int) int {
	if k >= 6 {
		return 1 << 62
	}
	return 1 << (1 << uint(k))
}

// capPrefix returns the total capacity of segments S[0..k].
func capPrefix(k int) int {
	total := 0
	for i := 0; i <= k; i++ {
		c := capOf(i)
		if total+c < total { // saturate
			return 1 << 62
		}
		total += c
	}
	return total
}

// segment is one working-set segment: a key-map and a recency-map over the
// same leaves, each tree with routing nodes of its own.
type segment[K cmp.Ordered, V any] struct {
	km  *twothree.Tree[K, V]
	rec *twothree.Seq[K, V]
	cap int
}

// newSegment makes segment S[k]. np is the engine's one free-list of routing
// nodes, shared by both trees of every segment: the nodes a shrinking tree
// drops immediately feed the one growing next to it — which is the common
// case, since restore moves items between neighbours every batch.
func newSegment[K cmp.Ordered, V any](k int, cnt *metrics.Counter, np *twothree.NodePool[K, V]) *segment[K, V] {
	return &segment[K, V]{
		km:  twothree.NewPooled(cnt, np),
		rec: twothree.NewSeqPooled(cnt, np),
		cap: capOf(k),
	}
}

func (s *segment[K, V]) size() int { return s.km.Len() }

// overBy returns how many items the segment holds beyond its capacity
// (0 if within capacity).
func (s *segment[K, V]) overBy() int {
	if d := s.size() - s.cap; d > 0 {
		return d
	}
	return 0
}

// underBy returns how many items the segment is short of its capacity.
func (s *segment[K, V]) underBy() int {
	if d := s.cap - s.size(); d > 0 {
		return d
	}
	return 0
}

// moveBatch is a set of items in transit between segments: the same
// leaves twice, in key order and in recency order (most recent first).
type moveBatch[K cmp.Ordered, V any] struct {
	kmLeaves  []*segLeaf[K, V]
	recLeaves []*segLeaf[K, V]
}

func (mb moveBatch[K, V]) len() int { return len(mb.kmLeaves) }

// moveScratch backs allocation-free segment removals and fresh batches: the
// moveBatch one returns aliases the scratch and is valid until the next call
// through the same scratch — every caller pushes it into its destination
// segment before that. One instance per single-threaded user
// (M0, the slab's engine run, each final slab segment's activation).
type moveScratch[K cmp.Ordered, V any] struct {
	del  []*segLeaf[K, V]
	rank []int
	rec  []*segLeaf[K, V]
}

// newItems builds a moveBatch of brand-new items from keysSorted (sorted,
// distinct) and the values aligned with it. The recency order is the key
// order, so one slice is both views.
func (ms *moveScratch[K, V]) newItems(keysSorted []K, vals []V) moveBatch[K, V] {
	ms.del = grow(ms.del, len(keysSorted))
	for i, k := range keysSorted {
		ms.del[i] = twothree.NewLeaf(k, vals[i])
	}
	return moveBatch[K, V]{kmLeaves: ms.del, recLeaves: ms.del}
}

// removeItems deletes the given present keys (sorted, distinct) from seg
// and returns them as a moveBatch. Panics if a key is absent — callers
// only remove keys found by a prior search.
func (ms *moveScratch[K, V]) removeItems(seg *segment[K, V], keys []K) moveBatch[K, V] {
	if len(keys) == 0 {
		return moveBatch[K, V]{}
	}
	ms.del = grow(ms.del, len(keys))
	kmLeaves := seg.km.BatchDeleteInto(keys, ms.del)
	for i, lf := range kmLeaves {
		if lf == nil {
			panic(fmt.Sprintf("core: removeItems: key %v absent", keys[i]))
		}
	}
	ms.rank = grow(ms.rank, len(kmLeaves))
	ms.rec = grow(ms.rec, len(kmLeaves))
	recLeaves := seg.rec.RemoveInto(kmLeaves, ms.rank, ms.rec)
	return moveBatch[K, V]{kmLeaves: kmLeaves, recLeaves: recLeaves}
}

// popBack removes the x least recent items of seg (x is clamped to the
// segment size) and returns them in recency order.
func (ms *moveScratch[K, V]) popBack(seg *segment[K, V], x int) moveBatch[K, V] {
	ms.rec = seg.rec.PopBack(x, grow(ms.rec, min(x, seg.size())))
	return ms.deleteByRecLeaves(seg)
}

// popFront removes the x most recent items of seg.
func (ms *moveScratch[K, V]) popFront(seg *segment[K, V], x int) moveBatch[K, V] {
	ms.rec = seg.rec.PopFront(x, grow(ms.rec, min(x, seg.size())))
	return ms.deleteByRecLeaves(seg)
}

// deleteByRecLeaves finishes a pop: ms.rec has left seg's recency-map, and
// the same leaves now leave its key-map, found by their up-pointers and not
// by their keys (BenchmarkSegmentPop: 11-14 % less time per popped item than
// sorting the keys and deleting by key, at b = 16, 64 and 256).
func (ms *moveScratch[K, V]) deleteByRecLeaves(seg *segment[K, V]) moveBatch[K, V] {
	ms.rank = grow(ms.rank, len(ms.rec))
	ms.del = grow(ms.del, len(ms.rec))
	return moveBatch[K, V]{kmLeaves: seg.km.RemoveInto(ms.rec, ms.rank, ms.del), recLeaves: ms.rec}
}

// pushFront inserts the batch at the most recent end of the segment.
func (s *segment[K, V]) pushFront(mb moveBatch[K, V]) {
	if mb.len() == 0 {
		return
	}
	s.km.BatchInsertLeaves(mb.kmLeaves)
	s.rec.PushFrontLeaves(mb.recLeaves)
}

// pushBack inserts the batch at the least recent end of the segment.
func (s *segment[K, V]) pushBack(mb moveBatch[K, V]) {
	if mb.len() == 0 {
		return
	}
	s.km.BatchInsertLeaves(mb.kmLeaves)
	s.rec.PushBackLeaves(mb.recLeaves)
}

// keepOnly compacts mb in place, keeping of the view in key order the
// leaves whose index satisfies keepIdx and of the view in recency order
// those whose key satisfies keepKey (the two views are in different orders,
// hence the two predicates — callers must make them agree). Both internal
// orders are preserved; the returned moveBatch aliases mb's slices.
func (mb moveBatch[K, V]) keepOnly(keepIdx func(int) bool, keepKey func(K) bool) moveBatch[K, V] {
	w := 0
	for i, lf := range mb.kmLeaves {
		if keepIdx(i) {
			mb.kmLeaves[w] = lf
			w++
		}
	}
	kept := moveBatch[K, V]{kmLeaves: mb.kmLeaves[:w]}
	w = 0
	for _, lf := range mb.recLeaves {
		if keepKey(lf.Key) {
			mb.recLeaves[w] = lf
			w++
		}
	}
	kept.recLeaves = mb.recLeaves[:w]
	return kept
}

// checkInvariants validates the segment's internal consistency (test
// hook): tree invariants, and that both trees own every leaf of either.
func (s *segment[K, V]) checkInvariants() error {
	if err := s.km.Validate(); err != nil {
		return fmt.Errorf("key-map: %w", err)
	}
	if err := s.rec.Validate(); err != nil {
		return fmt.Errorf("recency-map: %w", err)
	}
	if s.km.Len() != s.rec.Len() {
		return fmt.Errorf("key-map size %d != recency-map size %d", s.km.Len(), s.rec.Len())
	}
	// Equal sizes and every leaf of the one in the other: the same leaf set.
	for _, lf := range s.km.Flatten() {
		if !s.km.Owns(lf) || !s.rec.Owns(lf) {
			return fmt.Errorf("leaf %v is not owned by both trees of this segment", lf.Key)
		}
	}
	return nil
}
