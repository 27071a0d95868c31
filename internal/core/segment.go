package core

import (
	"cmp"
	"fmt"
	"iter"
	"math/bits"
	"slices"

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
// leaves, so S[5] is the last segment there is room for. In M1 every
// segment is on one key-map, and S[deepKM] is the first to search it.
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

// deepKM is the first of M1's segments found through the key-map, which
// in M1 is one tree over every segment's leaves. S[0..deepKM-1] hold at
// most 2+4+16+256 = 278 items and search a key-sorted slice of their own
// leaves (keySlice), so an S[k < deepKM] hit costs the paper's
// Σ_{i≤k} log|S_i|. An S[4] or S[5] hit costs those 15 plus one descent of
// under 31 binary levels, against the paper's 31 and 63: within a factor 2.
// Every segment keeps its own recency-map, which alone says which of them
// an item is in, so a move between segments touches recency-maps and
// slices, never the key-map.
const deepKM = 4

// segment is one working-set segment: a recency-map, which defines the
// segment's items, and a key-map holding the same leaves, each tree with
// routing nodes of its own. In M1 the key-map is S[0]'s, shared by every
// segment and holding all their leaves, and S[0..deepKM-1] have a search
// slice (sl, nil elsewhere).
type segment[K cmp.Ordered, V any] struct {
	km  *twothree.Tree[K, V]
	rec *twothree.Seq[K, V]
	sl  *keySlice[K, V]
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
// inKM marks items that never left the key-map, on a move between two
// segments that share one; kmLeaves is then nil unless the key order was
// at hand.
type moveBatch[K cmp.Ordered, V any] struct {
	kmLeaves  []*segLeaf[K, V]
	recLeaves []*segLeaf[K, V]
	inKM      bool
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
// recency-map and search slice: the items stay in the key-map it shares
// with the segment they are bound for. kmLeaves aliases leaves.
func (ms *moveScratch[K, V]) removeRec(seg *segment[K, V], leaves []*segLeaf[K, V]) moveBatch[K, V] {
	if seg.sl != nil {
		seg.sl.drop(leaves, true)
	}
	ms.rank = grow(ms.rank, len(leaves))
	ms.rec = grow(ms.rec, len(leaves))
	return moveBatch[K, V]{kmLeaves: leaves, recLeaves: seg.rec.RemoveInto(leaves, ms.rank, ms.rec), inKM: true}
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

// deleteByRecLeaves finishes a pop: ms.rec has left seg's recency-map and
// leaves its search slice, and unless keepKM the same leaves now leave its
// key-map, found by their up-pointers and not by their keys
// (BenchmarkSegmentPop: 11-14 % less time per popped item than sorting the
// keys and deleting by key, at b = 16, 64 and 256).
func (ms *moveScratch[K, V]) deleteByRecLeaves(seg *segment[K, V], keepKM bool) moveBatch[K, V] {
	if seg.sl != nil {
		seg.sl.drop(ms.rec, false)
	}
	if keepKM {
		return moveBatch[K, V]{recLeaves: ms.rec, inKM: true}
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
	s.addKeyed(mb)
	s.rec.PushFrontLeaves(mb.recLeaves)
}

// pushBack inserts the batch at the least recent end of the segment.
func (s *segment[K, V]) pushBack(mb moveBatch[K, V]) {
	if mb.len() == 0 {
		return
	}
	s.addKeyed(mb)
	s.rec.PushBackLeaves(mb.recLeaves)
}

// addKeyed puts the batch in the segment's key-map, unless it never left
// it, and in its search slice.
func (s *segment[K, V]) addKeyed(mb moveBatch[K, V]) {
	if !mb.inKM {
		s.km.BatchInsertLeaves(mb.kmLeaves)
	}
	if s.sl != nil {
		if mb.kmLeaves != nil {
			s.sl.add(mb.kmLeaves, true)
		} else {
			s.sl.add(mb.recLeaves, false)
		}
	}
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
	kept := moveBatch[K, V]{kmLeaves: mb.kmLeaves[:w], inKM: mb.inKM}
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
// the run of segments sharing it (all of M1's; one segment elsewhere).
// Every walk over the key-maps goes through it: a shared one visited per
// segment would hand MergePage a run twice.
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

// keySlice is a search slice: a segment's leaves in key order, which M1's
// S[0..deepKM-1] search instead of the key-map they share. Searches,
// inserts and removals are charged what a tree of the slice's length would
// cost, ⌈log2(len+1)⌉+1 per key; the shifts of merging and compacting, of
// at most the slice's length, are not modelled. spare is the merge target,
// swapped with leaves, so neither allocates once both have grown to the
// segment's capacity.
type keySlice[K cmp.Ordered, V any] struct {
	leaves, spare []*segLeaf[K, V]
	cnt           *metrics.Counter
}

func (ks *keySlice[K, V]) charge(keys int) {
	if ks.cnt != nil {
		ks.cnt.Add(int64(keys) * int64(bits.Len(uint(len(ks.leaves)))+1))
	}
}

func byKey[K cmp.Ordered, V any](a, b *segLeaf[K, V]) int { return cmp.Compare(a.Key, b.Key) }

// lowerBound returns the first index from lo on whose key is not below k.
func (ks *keySlice[K, V]) lowerBound(lo int, k K) int {
	hi := len(ks.leaves)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ks.leaves[m].Key < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// getInto sets out[i] to the leaf of keys[i] (sorted, distinct), nil where
// the slice has none: a merge walk when the batch is at least as long as
// the slice, else a binary search per key over the suffix past the last
// key's place. Either stops at the slice's maximum.
func (ks *keySlice[K, V]) getInto(keys []K, out []*segLeaf[K, V]) {
	ks.charge(len(keys))
	lv := ks.leaves
	if len(lv) == 0 {
		clear(out)
		return
	}
	maxKey, walk, j := lv[len(lv)-1].Key, len(keys) >= len(lv), 0
	for i, k := range keys {
		if k > maxKey {
			clear(out[i:])
			return
		}
		if walk {
			for lv[j].Key < k { // stops at maxKey at the latest
				j++
			}
		} else {
			j = ks.lowerBound(j, k)
		}
		if lv[j].Key == k {
			out[i] = lv[j]
		} else {
			out[i] = nil
		}
	}
}

// add merges leaves, none of them in the slice, into it: key-sorted when
// sorted is set, else in any order.
func (ks *keySlice[K, V]) add(leaves []*segLeaf[K, V], sorted bool) {
	ks.charge(len(leaves))
	n := len(ks.leaves)
	ks.leaves = append(ks.leaves, leaves...)
	a, b := ks.leaves[:n], ks.leaves[n:]
	if !sorted {
		slices.SortFunc(b, byKey)
	}
	if n == 0 || a[n-1].Key < b[0].Key {
		return
	}
	out := grow(ks.spare, len(ks.leaves))
	i, j := 0, 0
	for w := range out {
		if j == len(b) || (i < n && a[i].Key < b[j].Key) {
			out[w] = a[i]
			i++
		} else {
			out[w] = b[j]
			j++
		}
	}
	clear(ks.leaves) // don't pin leaves that leave the slice later
	ks.leaves, ks.spare = out, ks.leaves[:0]
}

// drop removes leaves, all of them in the slice: key-sorted when sorted is
// set, else in any order. Panics on a leaf the slice does not hold.
func (ks *keySlice[K, V]) drop(leaves []*segLeaf[K, V], sorted bool) {
	if len(leaves) == 0 {
		return
	}
	ks.charge(len(leaves))
	if !sorted {
		ks.spare = append(ks.spare[:0], leaves...)
		slices.SortFunc(ks.spare, byKey)
		leaves = ks.spare
	}
	w := ks.lowerBound(0, leaves[0].Key)
	j := 0
	for _, lf := range ks.leaves[w:] {
		if j < len(leaves) && lf == leaves[j] {
			j++
		} else {
			ks.leaves[w] = lf
			w++
		}
	}
	if j < len(leaves) {
		panic(fmt.Sprintf("core: keySlice.drop: leaf %v absent", leaves[j].Key))
	}
	clear(ks.leaves[w:])
	ks.leaves = ks.leaves[:w]
	if !sorted {
		clear(ks.spare)
	}
}
