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
// allocation (E18 in docs/history/EXPERIMENTS_E18-E23.md). A pool turns it into
// reuse.
//
// Only routing nodes are pooled, which the types enforce: leaves are
// identity — the maps hold direct pointers to them across segment moves
// (the paper's cross pointers) — and a leaf is a different type from
// what the pool holds. The routing nodes of a Tree and of a Seq over the
// same leaves are one type, so both draw on one pool: a node a shrinking
// recency-map drops can feed the key-map growing beside it.
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
// shape: the key-maps and recency-maps of all its segments share it, so
// nodes freed by one segment's deletions feed another segment's insertions.
func NewNodePool[K cmp.Ordered, P any]() *NodePool[K, P] {
	return &NodePool[K, P]{}
}

// get returns a routing node of height h on axis ax and otherwise zero,
// recycled if available.
func (np *NodePool[K, P]) get(h int16, ax axis) *inner[K, P] {
	var n *inner[K, P]
	if np != nil {
		n, _ = np.p.Get().(*inner[K, P])
	}
	if n == nil {
		n = new(inner[K, P])
	}
	n.h, n.ax = h, ax
	return n
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
