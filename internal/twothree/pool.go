package twothree

import (
	"cmp"
	"sync"
)

// NodePool recycles routing nodes. Items migrating between segments take
// routing nodes out of one tree and need them in another: a key-map batch
// delete drops the nodes it merges into a neighbour and a batch insert
// takes one for every node that overflows, while the recency sequences
// still split and rejoin their spines at every pop and push —
// and that churn is almost all of the engines' residual steady-state
// allocation (EXPERIMENTS.md E18). A pool turns it into reuse.
//
// Only routing nodes are pooled, which the types enforce: leaves are
// identity — the maps hold direct pointers to them across segment moves
// (the paper's cross pointers) — and a leaf is a different type from
// what the pool holds.
//
// A NodePool is safe for concurrent use (batch operations fork the visits
// to a node's children, and M2's final slab segments run as
// concurrent activations over a shared engine pool); it is backed by a
// sync.Pool, so recycled nodes are also GC-discardable. A nil *NodePool
// is valid and simply allocates: trees without a pool behave exactly as
// before.
type NodePool[K cmp.Ordered, P any] struct {
	p sync.Pool
}

// NewNodePool creates an empty pool. One pool per engine is the intended
// shape: all segments (and M2's filter tree) share it, so nodes freed by
// one segment's deletions feed another segment's insertions.
func NewNodePool[K cmp.Ordered, P any]() *NodePool[K, P] {
	return &NodePool[K, P]{}
}

// get returns a zeroed routing node, recycled if available.
func (np *NodePool[K, P]) get() *inner[K, P] {
	if np != nil {
		if v := np.p.Get(); v != nil {
			return v.(*inner[K, P])
		}
	}
	return &inner[K, P]{}
}

// put recycles a routing node the structure has dropped. The node is
// cleared first so pooled nodes pin neither subtrees nor key memory.
func (np *NodePool[K, P]) put(n *inner[K, P]) {
	if np == nil {
		return
	}
	*n = inner[K, P]{}
	np.p.Put(n)
}
