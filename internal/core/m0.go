package core

import (
	"cmp"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// seqMap is the sequential working-set structure that M0 and Iacono share:
// items live in segments S[0..l] with capacities 2^(2^k), every segment full
// except perhaps the last, each a key-map and a recency-map over the same
// leaves. Search, delete and the invariants are common; the two differ only
// in where Get and Insert move an item. Not safe for concurrent use.
type seqMap[K cmp.Ordered, V any] struct {
	segs []*segment[K, V]
	size int
	cnt  *metrics.Counter
	pool *twothree.NodePool[K, V]
	ms   moveScratch[K, V]
	one  [1]*segLeaf[K, V] // the batch of a single-leaf move
	key  [1]K              // the key of a single-item removal
}

func newSeqMap[K cmp.Ordered, V any](cnt *metrics.Counter) seqMap[K, V] {
	return seqMap[K, V]{cnt: cnt, pool: twothree.NewNodePool[K, V]()}
}

// Len returns the number of items.
func (m *seqMap[K, V]) Len() int { return m.size }

// Segments returns the current segment sizes (diagnostic hook).
func (m *seqMap[K, V]) Segments() []int {
	out := make([]int, len(m.segs))
	for i, s := range m.segs {
		out[i] = s.size()
	}
	return out
}

// addSegment opens the segment after the last.
func (m *seqMap[K, V]) addSegment() {
	m.segs = append(m.segs, newSegment[K, V](len(m.segs), m.cnt, m.pool))
}

// find locates k, returning its segment index and leaf.
func (m *seqMap[K, V]) find(k K) (int, *segLeaf[K, V]) {
	for i, s := range m.segs {
		if leaf, ok := s.km.Get(k); ok {
			return i, leaf
		}
	}
	return -1, nil
}

// fresh counts a new item and returns it as a one-leaf batch.
func (m *seqMap[K, V]) fresh(k K, v V) moveBatch[K, V] {
	m.size++
	m.one[0] = twothree.NewLeaf(k, v)
	return moveBatch[K, V]{kmLeaves: m.one[:], recLeaves: m.one[:]}
}

// take removes lf from S[i]'s recency-map and, unless it stays in S[i],
// from S[i]'s key-map, and returns it as a one-leaf batch.
func (m *seqMap[K, V]) take(i int, lf *segLeaf[K, V], stay bool) moveBatch[K, V] {
	if stay {
		m.one[0] = lf
		return m.ms.removeRec(m.segs[i], m.one[:])
	}
	m.key[0] = lf.Key
	return m.ms.removeItems(m.segs[i], m.key[:])
}

// moveFront moves lf from S[i] to the front of S[j]; within one segment
// only the recency-map changes.
func (m *seqMap[K, V]) moveFront(lf *segLeaf[K, V], i, j int) {
	m.segs[j].pushFront(m.take(i, lf, i == j))
}

// shiftBack moves the least recent item of S[i] to the front of S[i+1].
func (m *seqMap[K, V]) shiftBack(i int) {
	m.segs[i+1].pushFront(m.ms.popBack(m.segs[i], 1, false))
}

// Delete removes k if present. The hole is filled by shifting the most
// recent item of each later segment back one segment. O(1 + log n).
func (m *seqMap[K, V]) Delete(k K) (V, bool) {
	i, lf := m.find(k)
	if lf == nil {
		var zero V
		return zero, false
	}
	m.take(i, lf, false)
	m.size--
	for j := i; j < len(m.segs)-1 && m.segs[j+1].size() > 0; j++ {
		m.segs[j].pushBack(m.ms.popFront(m.segs[j+1], 1, false))
	}
	for len(m.segs) > 0 && m.segs[len(m.segs)-1].size() == 0 {
		m.segs = m.segs[:len(m.segs)-1]
	}
	return lf.Payload, true
}

// CheckInvariants verifies segment structure, capacity fullness (all full
// except the last) and size accounting (test hook).
func (m *seqMap[K, V]) CheckInvariants() error {
	if err := checkSegs(m.segs); err != nil {
		return err
	}
	total := 0
	for i, s := range m.segs {
		if s.cap != capOf(i) {
			return fmt.Errorf("segment %d capacity %d, want %d", i, s.cap, capOf(i))
		}
		if i < len(m.segs)-1 && s.size() != s.cap {
			return fmt.Errorf("non-terminal segment %d has size %d, capacity %d", i, s.size(), s.cap)
		}
		total += s.size()
	}
	if total != m.size {
		return fmt.Errorf("segment sizes sum to %d, tracked size %d", total, m.size)
	}
	return nil
}

// M0 is the amortized sequential working-set map of Section 5. Unlike
// Iacono's structure, an accessed item moves only to the front of the
// *previous* segment rather than all the way to S[0] — the localization
// that makes the pipelined M2 possible. By the Working-Set Cost Lemma
// (Lemma 6) the total cost still satisfies the working-set bound
// (Theorem 7).
//
// M0 is not safe for concurrent use; it is the sequential baseline that M1
// and M2 parallelize.
type M0[K cmp.Ordered, V any] struct {
	seqMap[K, V]
}

// NewM0 creates an empty map. cnt may be nil; when set, structural work is
// charged to it.
func NewM0[K cmp.Ordered, V any](cnt *metrics.Counter) *M0[K, V] {
	return &M0[K, V]{newSeqMap[K, V](cnt)}
}

// promote applies the M0 access rule to lf, found in S[i]: move it to the
// front of S[max(i-1, 0)]; if it crossed a segment boundary, shift the
// least recent item of S[i-1] back to the front of S[i] to preserve
// segment sizes.
func (m *M0[K, V]) promote(i int, lf *segLeaf[K, V]) {
	m.moveFront(lf, i, max(i-1, 0))
	if i > 0 {
		m.shiftBack(i - 1)
	}
}

// Get searches for k; on success the item is pulled one segment forward.
// O(1 + log r) for an item with recency r.
func (m *M0[K, V]) Get(k K) (V, bool) {
	i, lf := m.find(k)
	if lf == nil {
		var zero V
		return zero, false
	}
	m.promote(i, lf)
	return lf.Payload, true
}

// Insert adds k with value v at the back of the last segment, or updates
// (and promotes) it if present. It returns the previous value if the key
// existed. O(1 + log n).
func (m *M0[K, V]) Insert(k K, v V) (V, bool) {
	if i, lf := m.find(k); lf != nil {
		old := lf.Payload
		lf.Payload = v
		m.promote(i, lf)
		return old, true
	}
	if len(m.segs) == 0 || m.segs[len(m.segs)-1].underBy() == 0 {
		m.addSegment()
	}
	m.segs[len(m.segs)-1].pushBack(m.fresh(k, v))
	var zero V
	return zero, false
}
