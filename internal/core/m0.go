package core

import (
	"cmp"
	"fmt"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// M0 is the amortized sequential working-set map of Section 5: items live
// in segments S[0..l] with capacities 2^(2^k), every segment full except
// perhaps the last. Unlike Iacono's structure, an accessed item moves only
// to the front of the *previous* segment rather than all the way to S[0] —
// the localization that makes the pipelined M2 possible. By the Working-Set
// Cost Lemma (Lemma 6) the total cost still satisfies the working-set
// bound (Theorem 7).
//
// M0 is not safe for concurrent use; it is the sequential baseline that M1
// and M2 parallelize.
type M0[K cmp.Ordered, V any] struct {
	segs []*segment[K, V]
	size int
	cnt  *metrics.Counter
	pool *twothree.NodePool[K, V]
	ms   moveScratch[K, V]
}

// NewM0 creates an empty map. cnt may be nil; when set, structural work is
// charged to it.
func NewM0[K cmp.Ordered, V any](cnt *metrics.Counter) *M0[K, V] {
	return &M0[K, V]{cnt: cnt, pool: twothree.NewNodePool[K, V]()}
}

// Len returns the number of items.
func (m *M0[K, V]) Len() int { return m.size }

// Segments returns the current segment sizes (diagnostic hook).
func (m *M0[K, V]) Segments() []int {
	out := make([]int, len(m.segs))
	for i, s := range m.segs {
		out[i] = s.size()
	}
	return out
}

// find locates k, returning its segment index and leaf.
func (m *M0[K, V]) find(k K) (int, *segLeaf[K, V]) {
	for i, s := range m.segs {
		if leaf, ok := s.km.Get(k); ok {
			return i, leaf
		}
	}
	return -1, nil
}

// promote applies the M0 access rule to the item with key k found in
// segment i: move it to the front of S[max(i-1, 0)]; if it moved across a
// segment boundary, shift the least recent item of S[i-1] back to the
// front of S[i] to preserve segment sizes.
func (m *M0[K, V]) promote(i int, k K) {
	seg := m.segs[i]
	mb := m.ms.removeItems(seg, []K{k})
	tgt := i - 1
	if tgt < 0 {
		tgt = 0
	}
	m.segs[tgt].pushFront(mb)
	if i > 0 {
		shift := m.ms.popBack(m.segs[i-1], 1, false)
		m.segs[i].pushFront(shift)
	}
}

// Get searches for k; on success the item is pulled one segment forward.
// O(1 + log r) for an item with recency r.
func (m *M0[K, V]) Get(k K) (V, bool) {
	i, leaf := m.find(k)
	if leaf == nil {
		var zero V
		return zero, false
	}
	v := leaf.Payload
	m.promote(i, k)
	return v, true
}

// Insert adds k with value v, or updates (and promotes) it if present. It
// returns the previous value if the key existed. O(1 + log n).
func (m *M0[K, V]) Insert(k K, v V) (V, bool) {
	if i, leaf := m.find(k); leaf != nil {
		old := leaf.Payload
		leaf.Payload = v
		m.promote(i, k)
		return old, true
	}
	if len(m.segs) == 0 {
		m.segs = append(m.segs, newSegment[K, V](0, m.cnt, m.pool))
	}
	last := m.segs[len(m.segs)-1]
	if last.overBy() > 0 || last.underBy() == 0 {
		m.segs = append(m.segs, newSegment[K, V](len(m.segs), m.cnt, m.pool))
		last = m.segs[len(m.segs)-1]
	}
	last.pushBack(m.ms.newItems([]K{k}, []V{v}))
	m.size++
	var zero V
	return zero, false
}

// Delete removes k if present. The hole is filled by shifting the most
// recent item of each later segment back one segment. O(1 + log n).
func (m *M0[K, V]) Delete(k K) (V, bool) {
	i, leaf := m.find(k)
	if leaf == nil {
		var zero V
		return zero, false
	}
	v := leaf.Payload
	m.ms.removeItems(m.segs[i], []K{k})
	m.size--
	for j := i; j < len(m.segs)-1; j++ {
		next := m.segs[j+1]
		if next.size() == 0 {
			break
		}
		mb := m.ms.popFront(next, 1, false)
		m.segs[j].pushBack(mb)
	}
	for len(m.segs) > 0 && m.segs[len(m.segs)-1].size() == 0 {
		m.segs = m.segs[:len(m.segs)-1]
	}
	return v, true
}

// CheckInvariants verifies segment structure, capacity fullness (all full
// except the last) and size accounting (test hook).
func (m *M0[K, V]) CheckInvariants() error {
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
