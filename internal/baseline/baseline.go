// Package baseline provides Locked, a trivial global-lock adapter that
// turns any sequential map (splay tree, Iacono structure, M0) into a
// concurrent one, for throughput comparisons. The batched non-adaptive
// tree the experiments compare against is core.BatchedTree: it shares the
// working-set maps' implicit-batching interface.
package baseline

import (
	"cmp"
	"sync"
)

// Locked wraps a sequential map behind a global mutex.
type Locked[K cmp.Ordered, V any] struct {
	mu sync.Mutex
	m  SeqMap[K, V]
}

// SeqMap is the sequential map interface required by Locked.
type SeqMap[K cmp.Ordered, V any] interface {
	Get(K) (V, bool)
	Insert(K, V) (V, bool)
	Delete(K) (V, bool)
	Len() int
}

// NewLocked wraps m behind a global lock.
func NewLocked[K cmp.Ordered, V any](m SeqMap[K, V]) *Locked[K, V] {
	return &Locked[K, V]{m: m}
}

// Get searches for key k.
func (l *Locked[K, V]) Get(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Get(k)
}

// Insert adds or updates k.
func (l *Locked[K, V]) Insert(k K, v V) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Insert(k, v)
}

// Delete removes k.
func (l *Locked[K, V]) Delete(k K) (V, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Delete(k)
}

// Len returns the number of items.
func (l *Locked[K, V]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m.Len()
}
