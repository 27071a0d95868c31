package core

import (
	"cmp"

	"repro/internal/locks"
	"repro/internal/metrics"
	"repro/internal/twothree"
)

// BatchedTree is the non-adaptive baseline the paper compares the
// working-set maps against analytically (Sections 3 and 6): M1's
// implicit-batching interface in front of one balanced 2-3 tree instead
// of working-set segments. Each cut, sized by M1's rule, is one batched
// search for its groups' keys, each group resolved against what it found,
// then one batched insertion of the keys that appeared and one batched
// deletion of those that went. It does Θ(log n) work per operation
// whatever the recency, so the working-set maps beat it on skewed access
// and tie on uniform access.
//
// All methods are safe for concurrent use; each call blocks until the
// engine returns its result.
type BatchedTree[K cmp.Ordered, V any] struct {
	b      batcher[K, V]
	tree   *twothree.Tree[K, V]
	size   int
	groups groupArena[K, V]
	// Activation-private scratch, reused across cut batches.
	foundSc []*twothree.Node[K, V] // the search's leaves, then the deletion's
	insSc   []*twothree.Node[K, V]
	delSc   []K
}

// NewBatchedTree creates a batched 2-3 tree map with p buffer slots: p < 1
// defaults to runtime.GOMAXPROCS(0), and p is at least 2, as Config.P is.
// cnt may be nil.
func NewBatchedTree[K cmp.Ordered, V any](p int, cnt *metrics.Counter) *BatchedTree[K, V] {
	t := &BatchedTree[K, V]{tree: twothree.NewPooled(cnt, twothree.NewNodePool[K, V]())}
	t.b.init(Config{P: p, Counter: cnt}.withDefaults(), "BatchedTree")
	t.b.act = locks.NewActivation(t.b.ready, t.run)
	return t
}

// Get searches for key k.
func (t *BatchedTree[K, V]) Get(k K) (V, bool) { return t.b.Get(k) }

// Insert adds or updates k, returning the previous value if present.
func (t *BatchedTree[K, V]) Insert(k K, v V) (V, bool) { return t.b.Insert(k, v) }

// Delete removes k, returning its value if present.
func (t *BatchedTree[K, V]) Delete(k K) (V, bool) { return t.b.Delete(k) }

// Len returns the number of items (racy snapshot).
func (t *BatchedTree[K, V]) Len() int { return t.b.Len() }

// Close marks the map closed and waits for in-flight operations to drain.
func (t *BatchedTree[K, V]) Close() { t.b.Close() }

// run cuts one batch and applies it to the tree. It runs under the
// activation, the buffer's single flusher and the tree's one mutator.
func (t *BatchedTree[K, V]) run() bool {
	batch := t.b.cut(t.b.numBunches(t.size))
	if len(batch) == 0 {
		return false
	}
	groups := t.b.group(batch, &t.groups)
	keys := t.b.keySc[:0] // the sort is done with it
	for _, g := range groups {
		keys = append(keys, g.key)
	}
	t.b.keySc = keys
	found := t.tree.BatchGetInto(keys, grow(t.foundSc, len(keys)))
	t.foundSc = found
	ins, del := t.insSc[:0], t.delSc[:0]
	for i, g := range groups {
		lf := found[i]
		var cur V
		if lf != nil {
			cur = lf.Payload
		}
		switch p, v := g.resolve(lf != nil, cur, nil); {
		case p && lf != nil:
			lf.Payload = v
		case p:
			ins = append(ins, twothree.NewLeaf(g.key, v))
		case lf != nil:
			del = append(del, g.key)
		}
	}
	t.tree.BatchInsertLeaves(ins)
	if len(del) > 0 {
		t.tree.BatchDeleteInto(del, found[:len(del)])
	}
	t.size += len(ins) - len(del)
	// Publish the size before the calls that changed it complete.
	t.b.sizeA.Store(int64(t.size))
	completeAll(groups)
	clear(found)
	clear(ins)
	clear(del)
	t.insSc, t.delSc = ins, del
	return true
}
