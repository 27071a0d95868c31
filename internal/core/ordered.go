package core

import "cmp"

// Ordered queries. The working-set maps are ordered dictionaries: items
// are distributed across key-maps — one per segment, except that M1's
// segments all share one — each a key-sorted search tree, so ordered
// iteration merges the per-key-map orders (one run in M1).

// orderedItems merges the key-sorted contents of the given segments'
// key-maps, leaving out the keys dead (nil: none) reports.
func orderedItems[K cmp.Ordered, V any](segs []*segment[K, V], dead func(K) bool) []KV[K, V] {
	var runs [][]KV[K, V]
	for km := range keyMaps(segs) {
		var run []KV[K, V]
		for _, lf := range km.Flatten() {
			if dead == nil || !dead(lf.Key) {
				run = append(run, KV[K, V]{Key: lf.Key, Val: lf.Payload})
			}
		}
		runs = append(runs, run)
	}
	out, _ := MergePage(runs, 0, nil)
	return out
}

// Each visits every item of an M0 or Iacono in ascending key order, until
// f returns false, without adjusting recencies. O(n).
func (m *seqMap[K, V]) Each(f func(k K, v V) bool) {
	for _, kv := range orderedItems(m.segs, nil) {
		if !f(kv.Key, kv.Val) {
			return
		}
	}
}

// Items returns an ordered snapshot of the map's live contents (keys the
// Dead hook reports are left out). Like CheckInvariants, it is only valid
// while the map is quiescent (no operations in flight); it exists for
// draining, debugging and tests, not as a concurrent query. O(n).
func (m *M1[K, V]) Items(visit func(k K, v V) bool) {
	for _, kv := range orderedItems(m.slab.segs, m.slab.hooks.dead()) {
		if !visit(kv.Key, kv.Val) {
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
	for _, kv := range orderedItems(segs, nil) {
		if !visit(kv.Key, kv.Val) {
			return
		}
	}
}
