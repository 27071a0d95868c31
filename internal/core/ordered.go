package core

import "cmp"

// Ordered queries. The working-set maps are ordered dictionaries: items
// are distributed across segments, each holding a key-sorted 2-3 tree, so
// ordered iteration merges the per-segment orders.

// kvPair is one item of an ordered snapshot.
type kvPair[K cmp.Ordered, V any] struct {
	key K
	val V
}

// orderedItems merges the key-sorted contents of the given segments.
// Segment sizes grow doubly exponentially, so merging smallest-first is
// linear in the total size.
func orderedItems[K cmp.Ordered, V any](segs []*segment[K, V]) []kvPair[K, V] {
	var merged []kvPair[K, V]
	for _, s := range segs {
		leaves := s.km.Flatten()
		level := make([]kvPair[K, V], len(leaves))
		for i, lf := range leaves {
			level[i] = kvPair[K, V]{key: lf.Key, val: lf.Payload}
		}
		merged = mergeKV(merged, level)
	}
	return merged
}

func mergeKV[K cmp.Ordered, V any](a, b []kvPair[K, V]) []kvPair[K, V] {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]kvPair[K, V], 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].key < a[i].key {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Each visits every item in ascending key order without adjusting
// recencies. O(n).
func (m *M0[K, V]) Each(f func(k K, v V) bool) {
	for _, kv := range orderedItems(m.segs) {
		if !f(kv.key, kv.val) {
			return
		}
	}
}

// Min returns the smallest key and its value without adjusting recencies.
func (m *M0[K, V]) Min() (K, V, bool) { return edgeOf(m.segs, false) }

// Max returns the largest key and its value without adjusting recencies.
func (m *M0[K, V]) Max() (K, V, bool) { return edgeOf(m.segs, true) }

func edgeOf[K cmp.Ordered, V any](segs []*segment[K, V], max bool) (K, V, bool) {
	var bestK K
	var bestV V
	found := false
	for _, s := range segs {
		var leaf *segLeaf[K, V]
		if max {
			leaf = s.km.Max()
		} else {
			leaf = s.km.Min()
		}
		if leaf == nil {
			continue
		}
		if !found || (max && leaf.Key > bestK) || (!max && leaf.Key < bestK) {
			bestK, bestV, found = leaf.Key, leaf.Payload, true
		}
	}
	return bestK, bestV, found
}

// Items returns an ordered snapshot of the map's contents. Like
// CheckInvariants, it is only valid while the map is quiescent (no
// operations in flight); it exists for draining, debugging and tests, not
// as a concurrent query. O(n).
func (m *M1[K, V]) Items(visit func(k K, v V) bool) {
	for _, kv := range orderedItems(m.slab.segs) {
		if !visit(kv.key, kv.val) {
			return
		}
	}
}

// Items returns an ordered snapshot of the map's contents. Only valid
// while the map is quiescent (see M1.Items). O(n).
func (m *M2[K, V]) Items(visit func(k K, v V) bool) {
	m.segsMu.RLock()
	segs := append([]*segment[K, V]{}, m.first.segs...)
	for _, f := range m.fsegs {
		segs = append(segs, f.seg)
	}
	m.segsMu.RUnlock()
	for _, kv := range orderedItems(segs) {
		if !visit(kv.key, kv.val) {
			return
		}
	}
}
