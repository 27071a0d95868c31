package core

import (
	"cmp"

	"repro/internal/metrics"
)

// Iacono is Iacono's sequential working-set structure (reference [29] of
// the paper): M0's segments, called levels there, under the move-to-front
// rule. An accessed or inserted item moves to the front of S[0], and each
// overfull segment's least recent item moves to the front of the next, so
// the r most recently accessed items live in the first O(log log r)
// segments. Searching an item with access recency r costs O(1 + log r);
// insertions and deletions cost O(1 + log n).
//
// It is the dictionary of the sequential entropy sort ESort and a
// sequential baseline for the working-set experiments. Not safe for
// concurrent use.
type Iacono[K cmp.Ordered, V any] struct {
	seqMap[K, V]
}

// NewIacono creates an empty structure. cnt may be nil; when set,
// structural work is charged to it.
func NewIacono[K cmp.Ordered, V any](cnt *metrics.Counter) *Iacono[K, V] {
	return &Iacono[K, V]{newSeqMap[K, V](cnt)}
}

// cascade moves the least recent item of each overfull segment to the
// front of the next, opening a segment when the last overflows.
func (m *Iacono[K, V]) cascade() {
	for j := 0; m.segs[j].overBy() > 0; j++ {
		if j == len(m.segs)-1 {
			m.addSegment()
		}
		m.shiftBack(j)
	}
}

// Get searches for k; on success the item becomes the most recent, at the
// front of S[0]. O(1 + log r) for an item with recency r; O(1 + log n) on
// a miss.
func (m *Iacono[K, V]) Get(k K) (V, bool) {
	i, lf := m.find(k)
	if lf == nil {
		var zero V
		return zero, false
	}
	m.moveFront(lf, i, 0)
	m.cascade()
	return lf.Payload, true
}

// Insert adds or updates k; either way the item becomes the most recent.
// It returns the previous value if the key existed. O(1 + log n).
func (m *Iacono[K, V]) Insert(k K, v V) (V, bool) {
	if i, lf := m.find(k); lf != nil {
		old := lf.Payload
		lf.Payload = v
		m.moveFront(lf, i, 0)
		m.cascade()
		return old, true
	}
	if len(m.segs) == 0 {
		m.addSegment()
	}
	m.segs[0].pushFront(m.fresh(k, v))
	m.cascade()
	var zero V
	return zero, false
}

// ESort is the sequential entropy sort (Definition 29): it maps each
// distinct key to its positions in Iacono's structure, then reads the
// structure out in key order, merging its segments' key-maps. It returns
// the stable sorting permutation of keys. Θ(W) time where W is the insert
// working-set bound of the sequence, which is O(n·H + n); the merge is
// O(n) more per segment, and there are at most six.
func ESort[K cmp.Ordered](keys []K) []int {
	d := NewIacono[K, *[]int](nil)
	for i, k := range keys {
		if pos, ok := d.Get(k); ok {
			*pos = append(*pos, i)
		} else {
			d.Insert(k, &[]int{i})
		}
	}
	out := make([]int, 0, len(keys))
	for _, kv := range orderedItems(d.segs, nil) {
		out = append(out, *kv.Val...)
	}
	return out
}
