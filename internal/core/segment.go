package core

import (
	"cmp"
	"fmt"
	"iter"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// segLeaf is a resident item: one heap object holding the key and the
// value, and a leaf of both trees of the segment it is in — the key-map
// through one of its two up-pointers, the recency-map through the other.
// A direct pointer to it is the paper's cross pointer in both directions.
type segLeaf[K cmp.Ordered, V any] = twothree.Node[K, V]

// capOf returns segment S[k]'s capacity 2^(2^k), saturating for k >= 6
// (2^64 overflows). No map reaches segment 6: a tree holds at most 2^31-1
// leaves, so S[5] is the last segment there is room for, and in M1 it
// shares one key-map with S[4] (deepKM).
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

// deepKM is the segment from which on M1's segments share one key-map.
// Capacities square, so S[4] holds 2^16 items and S[5] 2^32, more than the
// 2^31-1 leaves a tree can hold: S[5] is the last segment, and one key-map
// over S[4] and S[5] has fewer than 2^31 leaves, a descent of under 31
// binary levels against 16 for S[4]'s own — within a factor 2 of the
// paper's per-segment bound for an S[4] hit, and one descent instead of two
// for an S[5] hit. The segments sharing a key-map keep a recency-map each,
// which alone says which of them an item is in.
const deepKM = 4

// segment is one working-set segment: a recency-map, which defines the
// segment's items, and a key-map over the same leaves, each tree with
// routing nodes of its own. In M1 the key-map of S[deepKM] is also that of
// every deeper segment, and holds their leaves as well.
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

func (s *segment[K, V]) size() int { return s.rec.Len() }

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
// kmLeaves is nil when the items never left the key-map, on a move between
// two segments that share one.
type moveBatch[K cmp.Ordered, V any] struct {
	kmLeaves  []*segLeaf[K, V]
	recLeaves []*segLeaf[K, V]
}

func (mb moveBatch[K, V]) len() int { return len(mb.recLeaves) }

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

// removeRec takes the given leaves of seg (key-sorted) out of its
// recency-map only: the items stay in the key-map it shares with the
// segment they are bound for. kmLeaves aliases leaves.
func (ms *moveScratch[K, V]) removeRec(seg *segment[K, V], leaves []*segLeaf[K, V]) moveBatch[K, V] {
	ms.rank = grow(ms.rank, len(leaves))
	ms.rec = grow(ms.rec, len(leaves))
	return moveBatch[K, V]{kmLeaves: leaves, recLeaves: seg.rec.RemoveInto(leaves, ms.rank, ms.rec)}
}

// popBack removes the x least recent items of seg (x is clamped to the
// segment size) and returns them in recency order. Under keepKM they stay
// in seg's key-map, which must be that of the segment they are bound for.
func (ms *moveScratch[K, V]) popBack(seg *segment[K, V], x int, keepKM bool) moveBatch[K, V] {
	ms.rec = seg.rec.PopBack(x, grow(ms.rec, min(x, seg.size())))
	return ms.deleteByRecLeaves(seg, keepKM)
}

// popFront removes the x most recent items of seg, as popBack does.
func (ms *moveScratch[K, V]) popFront(seg *segment[K, V], x int, keepKM bool) moveBatch[K, V] {
	ms.rec = seg.rec.PopFront(x, grow(ms.rec, min(x, seg.size())))
	return ms.deleteByRecLeaves(seg, keepKM)
}

// deleteByRecLeaves finishes a pop: ms.rec has left seg's recency-map, and
// unless keepKM the same leaves now leave its key-map, found by their
// up-pointers and not by their keys (BenchmarkSegmentPop: 11-14 % less time
// per popped item than sorting the keys and deleting by key, at b = 16, 64
// and 256).
func (ms *moveScratch[K, V]) deleteByRecLeaves(seg *segment[K, V], keepKM bool) moveBatch[K, V] {
	if keepKM {
		return moveBatch[K, V]{recLeaves: ms.rec}
	}
	return moveBatch[K, V]{kmLeaves: ms.removeKM(seg, ms.rec), recLeaves: ms.rec}
}

// removeKM takes leaves of seg (in any order) out of its key-map by their
// up-pointers and returns them in key order, in ms.del.
func (ms *moveScratch[K, V]) removeKM(seg *segment[K, V], leaves []*segLeaf[K, V]) []*segLeaf[K, V] {
	ms.rank = grow(ms.rank, len(leaves))
	ms.del = grow(ms.del, len(leaves))
	return seg.km.RemoveInto(leaves, ms.rank, ms.del)
}

// pushFront inserts the batch at the most recent end of the segment.
func (s *segment[K, V]) pushFront(mb moveBatch[K, V]) {
	if mb.len() == 0 {
		return
	}
	if mb.kmLeaves != nil {
		s.km.BatchInsertLeaves(mb.kmLeaves)
	}
	s.rec.PushFrontLeaves(mb.recLeaves)
}

// pushBack inserts the batch at the least recent end of the segment.
func (s *segment[K, V]) pushBack(mb moveBatch[K, V]) {
	if mb.len() == 0 {
		return
	}
	if mb.kmLeaves != nil {
		s.km.BatchInsertLeaves(mb.kmLeaves)
	}
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

// keyMaps yields each distinct key-map of segs once, in segment order, with
// the run of segments sharing it (M1's from deepKM on; one segment
// elsewhere). Every walk over the key-maps goes through it: a shared one
// visited per segment would hand MergePage a run twice.
func keyMaps[K cmp.Ordered, V any](segs []*segment[K, V]) iter.Seq2[*twothree.Tree[K, V], []*segment[K, V]] {
	return func(yield func(*twothree.Tree[K, V], []*segment[K, V]) bool) {
		for i := 0; i < len(segs); {
			j := i + 1
			for j < len(segs) && segs[j].km == segs[i].km {
				j++
			}
			if !yield(segs[i].km, segs[i:j]) {
				return
			}
			i = j
		}
	}
}

// checkSegs validates the segments' trees (test hook): tree invariants, and
// that every leaf of a key-map is in exactly one recency-map of the run
// sharing it, whose sizes add up to the key-map's.
func checkSegs[K cmp.Ordered, V any](segs []*segment[K, V]) error {
	for km, run := range keyMaps(segs) {
		if err := km.Validate(); err != nil {
			return fmt.Errorf("key-map: %w", err)
		}
		total := 0
		for _, s := range run {
			if err := s.rec.Validate(); err != nil {
				return fmt.Errorf("recency-map: %w", err)
			}
			total += s.rec.Len()
		}
		if km.Len() != total {
			return fmt.Errorf("key-map size %d != recency-map sizes %d", km.Len(), total)
		}
		// Equal sizes and every leaf of the one in one of the others: the
		// same leaf set, split among the recency-maps.
		for _, lf := range km.Flatten() {
			owners := 0
			for _, s := range run {
				if s.rec.Owns(lf) {
					owners++
				}
			}
			if !km.Owns(lf) || owners != 1 {
				return fmt.Errorf("leaf %v is in %d of the %d recency-maps sharing its key-map", lf.Key, owners, len(run))
			}
		}
	}
	return nil
}
