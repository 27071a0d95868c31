// Package iacono implements Iacono's sequential working-set structure
// (reference [29] of the paper): a sequence of balanced search trees
// t_1, t_2, ..., t_l where tree t_i (i < l) holds 2^(2^i) items, with the
// invariant that the r most recently accessed items live in the first
// O(log log r) trees. Searching an item with access recency r costs
// O(1 + log r); insertions and deletions cost O(1 + log n).
//
// The structure serves two roles in this repository: it is the dictionary
// underlying the sequential entropy sort ESort (Definition 29 of the
// paper), and it is a sequential baseline for the working-set experiments.
//
// Each tree pairs a key-ordered 2-3 tree with a doubly-linked recency list
// (a strictly cheaper stand-in for the recency balanced tree; DESIGN.md
// substitution 7).
package iacono

import (
	"cmp"

	"repro/internal/metrics"
	"repro/internal/twothree"
)

// entry is one item: its recency-list node, owning tree index and payload.
type entry[K cmp.Ordered, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
	tree       int
}

// list is an intrusive doubly-linked recency list: front = most recent.
type list[K cmp.Ordered, V any] struct {
	head, tail *entry[K, V]
	size       int
}

func (l *list[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = nil, l.head
	if l.head != nil {
		l.head.prev = e
	} else {
		l.tail = e
	}
	l.head = e
	l.size++
}

func (l *list[K, V]) pushBack(e *entry[K, V]) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
	l.size++
}

func (l *list[K, V]) remove(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.size--
}

// level is one tree t_i with its recency list.
type level[K cmp.Ordered, V any] struct {
	keys *twothree.Tree[K, *entry[K, V]]
	rec  list[K, V]
	cap  int
}

// Map is Iacono's working-set structure. Not safe for concurrent use.
type Map[K cmp.Ordered, V any] struct {
	levels []*level[K, V]
	size   int
	cnt    *metrics.Counter
}

// New creates an empty working-set structure. cnt may be nil; when set,
// tree operations charge their cost to it.
func New[K cmp.Ordered, V any](cnt *metrics.Counter) *Map[K, V] {
	return &Map[K, V]{cnt: cnt}
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

func (m *Map[K, V]) newLevel() *level[K, V] {
	lv := &level[K, V]{
		keys: twothree.New[K, *entry[K, V]](m.cnt),
		cap:  levelCap(len(m.levels)),
	}
	m.levels = append(m.levels, lv)
	return lv
}

// find locates key k, returning its level index and entry.
func (m *Map[K, V]) find(k K) (int, *entry[K, V]) {
	for i, lv := range m.levels {
		if leaf, ok := lv.keys.Get(k); ok {
			return i, leaf.Payload
		}
	}
	return -1, nil
}

// promote moves e (currently in level i) to the front of level 0 and
// cascades the least recently used item of each overfull level downward.
func (m *Map[K, V]) promote(i int, e *entry[K, V]) {
	if i != 0 {
		lv := m.levels[i]
		lv.keys.Delete(e.key)
		lv.rec.remove(e)
		front := m.levels[0]
		front.keys.Insert(e.key, e)
		e.tree = 0
		front.rec.pushFront(e)
	} else {
		lv := m.levels[0]
		lv.rec.remove(e)
		lv.rec.pushFront(e)
	}
	// Cascade LRU overflow down the sequence.
	for j := 0; j < len(m.levels)-1; j++ {
		lv := m.levels[j]
		if lv.rec.size <= lv.cap {
			break
		}
		lru := lv.rec.tail
		lv.rec.remove(lru)
		lv.keys.Delete(lru.key)
		next := m.levels[j+1]
		next.keys.Insert(lru.key, lru)
		lru.tree = j + 1
		next.rec.pushFront(lru)
	}
	last := m.levels[len(m.levels)-1]
	if last.rec.size > last.cap {
		nl := m.newLevel()
		lru := last.rec.tail
		last.rec.remove(lru)
		last.keys.Delete(lru.key)
		nl.keys.Insert(lru.key, lru)
		lru.tree = len(m.levels) - 1
		nl.rec.pushFront(lru)
	}
}

// Get searches for k; on success the item is promoted to the front
// (it becomes the most recently accessed item). O(1 + log r) for an item
// with recency r; O(1 + log n) on a miss.
func (m *Map[K, V]) Get(k K) (V, bool) {
	i, e := m.find(k)
	if e == nil {
		var zero V
		return zero, false
	}
	m.promote(i, e)
	return e.val, true
}

// Insert adds or updates k. A new item is inserted at the front (most
// recent); an existing item is updated and promoted. It returns the
// previous value if the key existed. O(1 + log n).
func (m *Map[K, V]) Insert(k K, v V) (V, bool) {
	var zero V
	if i, e := m.find(k); e != nil {
		old := e.val
		e.val = v
		m.promote(i, e)
		return old, true
	}
	if len(m.levels) == 0 {
		m.newLevel()
	}
	e := &entry[K, V]{key: k, val: v}
	m.levels[0].keys.Insert(k, e)
	m.levels[0].rec.pushFront(e)
	m.size++
	m.promote(0, e) // cascade any overflow
	return zero, false
}

// Delete removes k if present, filling the hole by shifting the most
// recent item of each subsequent tree back one level (the classic
// working-set deletion). O(1 + log n).
func (m *Map[K, V]) Delete(k K) (V, bool) {
	var zero V
	i, e := m.find(k)
	if e == nil {
		return zero, false
	}
	lv := m.levels[i]
	lv.keys.Delete(k)
	lv.rec.remove(e)
	m.size--
	for j := i; j < len(m.levels)-1; j++ {
		next := m.levels[j+1]
		if next.rec.size == 0 {
			break
		}
		mru := next.rec.head
		next.rec.remove(mru)
		next.keys.Delete(mru.key)
		cur := m.levels[j]
		cur.keys.Insert(mru.key, mru)
		mru.tree = j
		cur.rec.pushBack(mru)
	}
	for len(m.levels) > 0 && m.levels[len(m.levels)-1].rec.size == 0 {
		m.levels = m.levels[:len(m.levels)-1]
	}
	return e.val, true
}

// Each calls f for every item, in no particular order.
func (m *Map[K, V]) Each(f func(k K, v V)) {
	for _, lv := range m.levels {
		for e := lv.rec.head; e != nil; e = e.next {
			f(e.key, e.val)
		}
	}
}

// EachLevel calls f once per tree, with the level index and the level's
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
			items[j].Val = lf.Payload.val
		}
		f(i, items)
	}
}

// CheckInvariants validates level capacities and tree/list agreement
// (test hook).
func (m *Map[K, V]) CheckInvariants() error {
	total := 0
	for i, lv := range m.levels {
		if err := lv.keys.Validate(); err != nil {
			return err
		}
		if lv.keys.Len() != lv.rec.size {
			return errMismatch(i, lv.keys.Len(), lv.rec.size)
		}
		if i < len(m.levels)-1 && lv.rec.size > lv.cap {
			return errOverCap(i, lv.rec.size, lv.cap)
		}
		total += lv.rec.size
	}
	if total != m.size {
		return errTotal(total, m.size)
	}
	return nil
}
