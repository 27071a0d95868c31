// Package iacono implements Iacono's sequential working-set structure
// (reference [29] of the paper): a sequence of levels t_1, t_2, ..., t_l
// where level t_i (i < l) holds 2^(2^i) items, with the invariant that the
// r most recently accessed items live in the first O(log log r) levels.
// Searching an item with access recency r costs O(1 + log r); insertions
// and deletions cost O(1 + log n).
//
// The structure serves two roles in this repository: it is the dictionary
// underlying the sequential entropy sort ESort (Definition 29 of the
// paper), and it is a sequential baseline for the working-set experiments.
//
// It is built from the parts of the working-set maps' segments: each level
// is a key-map, a twothree.Tree, and a recency-map, a twothree.Seq tagged
// with the level's index (a strictly cheaper stand-in for the recency
// balanced tree; DESIGN.md "Paper fidelity: recency-maps are lists"), over
// the same leaves. An item is one twothree.Node for its life: it moves
// between levels by the tree and list calls that move M0's items between
// segments, and a hit in the first level only re-links its list. Both maps
// charge their work to the structure's counter.
package iacono

import (
	"cmp"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// level is one tree t_i: a key-map and a recency-map over the same leaves.
type level[K cmp.Ordered, V any] struct {
	keys *twothree.Tree[K, V]
	rec  *twothree.Seq[K, V]
	cap  int
}

// Map is Iacono's working-set structure. Not safe for concurrent use.
type Map[K cmp.Ordered, V any] struct {
	levels []*level[K, V]
	size   int
	cnt    *metrics.Counter
	pool   *twothree.NodePool[K, V]
	one    [1]*twothree.Node[K, V] // the batch of a single-leaf move
}

// New creates an empty working-set structure. cnt may be nil; when set,
// tree and list operations charge their cost to it.
func New[K cmp.Ordered, V any](cnt *metrics.Counter) *Map[K, V] {
	return &Map[K, V]{cnt: cnt, pool: twothree.NewNodePool[K, V]()}
}

// levelCap returns the capacity 2^(2^i) of level i, saturating.
func levelCap(i int) int {
	if i >= 5 {
		return 1 << 62
	}
	return 1 << (1 << uint(i))
}

// Len returns the number of items.
func (m *Map[K, V]) Len() int { return m.size }

func (m *Map[K, V]) newLevel() {
	i := len(m.levels)
	m.levels = append(m.levels, &level[K, V]{
		keys: twothree.NewPooled(m.cnt, m.pool),
		rec:  twothree.NewSeq[K, V](i, m.cnt),
		cap:  levelCap(i),
	})
}

// find locates key k, returning its level index and leaf.
func (m *Map[K, V]) find(k K) (int, *twothree.Node[K, V]) {
	for i, lv := range m.levels {
		if lf, ok := lv.keys.Get(k); ok {
			return i, lf
		}
	}
	return -1, nil
}

// unlink takes lf out of level i's recency-map.
func (m *Map[K, V]) unlink(i int, lf *twothree.Node[K, V]) {
	m.one[0] = lf
	m.levels[i].rec.RemoveInto(m.one[:], m.one[:])
	m.one[0] = nil
}

// relink moves lf, out of from's recency-map, to the front or the back of
// to's; it changes key-maps only when the levels differ.
func (m *Map[K, V]) relink(lf *twothree.Node[K, V], from, to *level[K, V], front bool) {
	m.one[0] = lf
	if from != to {
		from.keys.Delete(lf.Key)
		to.keys.BatchInsertLeaves(m.one[:])
	}
	if front {
		to.rec.PushFrontLeaves(m.one[:])
	} else {
		to.rec.PushBackLeaves(m.one[:])
	}
	m.one[0] = nil
}

// promote moves lf (currently in level i) to the front of level 0 and
// cascades the least recently used item of each overfull level downward.
func (m *Map[K, V]) promote(i int, lf *twothree.Node[K, V]) {
	m.unlink(i, lf)
	m.relink(lf, m.levels[i], m.levels[0], true)
	m.cascade()
}

// cascade moves the least recently used item of each overfull level to the
// front of the next, opening a level when the last overflows.
func (m *Map[K, V]) cascade() {
	for j := 0; m.levels[j].rec.Len() > m.levels[j].cap; j++ {
		if j == len(m.levels)-1 {
			m.newLevel()
		}
		lru := m.levels[j].rec.PopBack(1, m.one[:0])[0]
		m.relink(lru, m.levels[j], m.levels[j+1], true)
	}
}

// Get searches for k; on success the item is promoted to the front
// (it becomes the most recently accessed item). O(1 + log r) for an item
// with recency r; O(1 + log n) on a miss.
func (m *Map[K, V]) Get(k K) (V, bool) {
	i, lf := m.find(k)
	if lf == nil {
		var zero V
		return zero, false
	}
	m.promote(i, lf)
	return lf.Payload, true
}

// Insert adds or updates k. A new item is inserted at the front (most
// recent); an existing item is updated and promoted. It returns the
// previous value if the key existed. O(1 + log n).
func (m *Map[K, V]) Insert(k K, v V) (V, bool) {
	if i, lf := m.find(k); lf != nil {
		old := lf.Payload
		lf.Payload = v
		m.promote(i, lf)
		return old, true
	}
	if len(m.levels) == 0 {
		m.newLevel()
	}
	lf, _ := m.levels[0].keys.Insert(k, v)
	m.relink(lf, m.levels[0], m.levels[0], true)
	m.size++
	m.cascade()
	var zero V
	return zero, false
}

// Delete removes k if present, filling the hole by shifting the most
// recent item of each subsequent level back one level (the classic
// working-set deletion). O(1 + log n).
func (m *Map[K, V]) Delete(k K) (V, bool) {
	i, lf := m.find(k)
	if lf == nil {
		var zero V
		return zero, false
	}
	m.levels[i].keys.Delete(k)
	m.unlink(i, lf)
	m.size--
	for j := i; j < len(m.levels)-1 && m.levels[j+1].rec.Len() > 0; j++ {
		mru := m.levels[j+1].rec.PopFront(1, m.one[:0])[0]
		m.relink(mru, m.levels[j+1], m.levels[j], false)
	}
	for len(m.levels) > 0 && m.levels[len(m.levels)-1].rec.Len() == 0 {
		m.levels = m.levels[:len(m.levels)-1]
	}
	return lf.Payload, true
}

// Each calls f for every item, in no particular order.
func (m *Map[K, V]) Each(f func(k K, v V)) {
	for _, lv := range m.levels {
		for _, lf := range lv.rec.Flatten() {
			f(lf.Key, lf.Payload)
		}
	}
}

// EachLevel calls f once per level, with the level index and the level's
// items in key order (used by ESort's segment-merge step).
func (m *Map[K, V]) EachLevel(f func(i int, items []struct {
	Key K
	Val V
})) {
	for i, lv := range m.levels {
		leaves := lv.keys.Flatten()
		items := make([]struct {
			Key K
			Val V
		}, len(leaves))
		for j, lf := range leaves {
			items[j].Key = lf.Key
			items[j].Val = lf.Payload
		}
		f(i, items)
	}
}

// CheckInvariants validates level capacities, both maps of every level and
// their agreement (test hook).
func (m *Map[K, V]) CheckInvariants() error {
	total := 0
	for i, lv := range m.levels {
		if err := lv.keys.Validate(); err != nil {
			return err
		}
		if err := lv.rec.Validate(); err != nil {
			return err
		}
		if lv.keys.Len() != lv.rec.Len() {
			return errMismatch(i, lv.keys.Len(), lv.rec.Len())
		}
		for _, lf := range lv.keys.Flatten() {
			if !lv.rec.Owns(lf) {
				return errStray(i, lf.Key)
			}
		}
		if i < len(m.levels)-1 && lv.rec.Len() > lv.cap {
			return errOverCap(i, lv.rec.Len(), lv.cap)
		}
		total += lv.rec.Len()
	}
	if total != m.size {
		return errTotal(total, m.size)
	}
	return nil
}
