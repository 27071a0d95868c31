package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// segPayload is the per-item payload stored in a segment's key-map: the
// item's value plus the direct pointer to its recency-map leaf (the paper's
// cross pointer between the two trees of a segment).
type segPayload[K cmp.Ordered, V any] struct {
	val V
	rec *twothree.SeqLeaf[K]
}

// kmLeaf is a key-map leaf: a direct pointer to an item.
type kmLeaf[K cmp.Ordered, V any] = twothree.Node[K, segPayload[K, V]]

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
// same items, each a 2-3 tree, with cross pointers between their leaves.
type segment[K cmp.Ordered, V any] struct {
	km  *twothree.Tree[K, segPayload[K, V]]
	rec *twothree.Seq[K]
	cap int
}

// segPools bundles the two node free-lists an engine's segments share:
// one for key-map internal nodes, one for recency-map internal nodes.
// Sharing per engine (rather than per segment) means the spine nodes a
// shrinking segment drops immediately feed the segment growing next to
// it — which is the common case, since restore moves items between
// neighbours every batch.
type segPools[K cmp.Ordered, V any] struct {
	km  *twothree.NodePool[K, segPayload[K, V]]
	rec *twothree.NodePool[K, struct{}]
}

func newSegPools[K cmp.Ordered, V any]() segPools[K, V] {
	return segPools[K, V]{
		km:  twothree.NewNodePool[K, segPayload[K, V]](),
		rec: twothree.NewNodePool[K, struct{}](),
	}
}

func newSegment[K cmp.Ordered, V any](k int, cnt *metrics.Counter, np segPools[K, V]) *segment[K, V] {
	return &segment[K, V]{
		km:  twothree.NewPooled[K, segPayload[K, V]](cnt, np.km),
		rec: twothree.NewSeqPooled[K](cnt, np.rec),
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

// moveBatch is a set of items in transit between segments: key-map leaves
// in key order and the same items' recency leaves in recency order (most
// recent first). Leaf identity is preserved across moves, so the cross
// pointers stay valid.
type moveBatch[K cmp.Ordered, V any] struct {
	kmLeaves  []*kmLeaf[K, V]
	recLeaves []*twothree.SeqLeaf[K]
}

func (mb moveBatch[K, V]) len() int { return len(mb.kmLeaves) }

// newItems builds a moveBatch of brand-new items from keysSorted (sorted,
// distinct) and the values aligned with it. The recency order is the key
// order, so the two leaf slices are index-aligned.
func newItems[K cmp.Ordered, V any](keysSorted []K, vals []V) moveBatch[K, V] {
	kmLeaves := make([]*kmLeaf[K, V], len(keysSorted))
	recLeaves := make([]*twothree.SeqLeaf[K], len(keysSorted))
	for i, k := range keysSorted {
		recLeaves[i] = twothree.NewLeaf(k, struct{}{})
		kmLeaves[i] = twothree.NewLeaf(k, segPayload[K, V]{val: vals[i], rec: recLeaves[i]})
	}
	return moveBatch[K, V]{kmLeaves: kmLeaves, recLeaves: recLeaves}
}

// moveScratch backs allocation-free segment removals: the moveBatch a
// removal returns aliases the scratch and is valid until the next removal
// through the same scratch — every caller pushes it into its destination
// segment before removing again. One instance per single-threaded user
// (M0, the slab's engine run, each final slab segment's activation).
type moveScratch[K cmp.Ordered, V any] struct {
	keys   []K
	del    []*kmLeaf[K, V]
	recOrd []*twothree.SeqLeaf[K]
	rank   []int
	rec    []*twothree.SeqLeaf[K]
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
	ms.recOrd = grow(ms.recOrd, len(kmLeaves))
	for i, lf := range kmLeaves {
		if lf == nil {
			panic(fmt.Sprintf("core: removeItems: key %v absent", keys[i]))
		}
		ms.recOrd[i] = lf.Payload.rec
	}
	ms.rank = grow(ms.rank, len(kmLeaves))
	ms.rec = grow(ms.rec, len(kmLeaves))
	recLeaves := seg.rec.RemoveInto(ms.recOrd, ms.rank, ms.rec)
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
// the same items now leave its key-map.
func (ms *moveScratch[K, V]) deleteByRecLeaves(seg *segment[K, V]) moveBatch[K, V] {
	if len(ms.rec) == 0 {
		return moveBatch[K, V]{}
	}
	ms.keys = grow(ms.keys, len(ms.rec))
	for i, lf := range ms.rec {
		ms.keys[i] = lf.Key
	}
	slices.Sort(ms.keys)
	ms.del = grow(ms.del, len(ms.keys))
	kmLeaves := seg.km.BatchDeleteInto(ms.keys, ms.del)
	for i, lf := range kmLeaves {
		if lf == nil {
			panic(fmt.Sprintf("core: segment key-map missing key %v from recency map", ms.keys[i]))
		}
	}
	return moveBatch[K, V]{kmLeaves: kmLeaves, recLeaves: ms.rec}
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

// keepOnly compacts mb in place, keeping the key-map leaves whose index
// satisfies keepIdx and the recency leaves whose key satisfies keepKey
// (the two views are in different orders, hence the two predicates —
// callers must make them agree). Both internal orders are preserved; the
// returned moveBatch aliases mb's slices.
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
// hook): tree invariants, equal sizes, and cross-pointer agreement.
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
	for _, lf := range s.km.Flatten() {
		r := lf.Payload.rec
		if r == nil || r.Key != lf.Key {
			return fmt.Errorf("broken cross pointer for key %v", lf.Key)
		}
		if !s.rec.Owns(r) {
			return fmt.Errorf("recency leaf for key %v not in this segment", lf.Key)
		}
	}
	return nil
}
