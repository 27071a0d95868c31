package twothree

import (
	"math/rand"
	"testing"
)

// TestNodePoolLeafIdentity churns a pooled tree hard — single-key inserts
// and deletes taking and recycling routing nodes constantly —
// and checks that leaves are never recycled out from under their direct
// pointers: every surviving leaf keeps its key and payload, and the tree
// stays valid.
func TestNodePoolLeafIdentity(t *testing.T) {
	pool := NewNodePool[int, int]()
	tr := NewPooled[int, int](nil, pool)
	const n = 600
	leaves := make(map[int]*Node[int, int])
	for i := 0; i < n; i++ {
		lf, existed := tr.Insert(i, i*10)
		if existed {
			t.Fatalf("key %d existed", i)
		}
		leaves[i] = lf
	}
	rng := rand.New(rand.NewSource(7))
	alive := make(map[int]bool, n)
	for i := 0; i < n; i++ {
		alive[i] = true
	}
	for round := 0; round < 40; round++ {
		// Delete a random batch, reinsert half of it, validating as we go.
		var del []int
		for k := range alive {
			if rng.Intn(4) == 0 {
				del = append(del, k)
			}
		}
		for _, k := range del {
			if _, ok := tr.Delete(k); !ok {
				t.Fatalf("round %d: key %d missing", round, k)
			}
			delete(alive, k)
		}
		for i, k := range del {
			if i%2 == 0 {
				lf, _ := tr.Insert(k, k*10)
				leaves[k] = lf
				alive[k] = true
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for k := range alive {
			lf := leaves[k]
			if lf.Key != k || lf.Payload != k*10 {
				t.Fatalf("round %d: leaf for %d corrupted: key=%d payload=%d (recycled?)",
					round, k, lf.Key, lf.Payload)
			}
		}
	}
	if tr.Len() != len(alive) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(alive))
	}
}

// TestNodePoolZeroes checks the pool's clearing contract: a recycled
// routing node comes back with no children, parent, size, key or height. (That
// leaves are never pooled needs no test: put takes *inner, and a leaf is
// a *Node.)
func TestNodePoolZeroes(t *testing.T) {
	np := NewNodePool[int, string]()
	internal := mk2(np, leafRef(NewLeaf(1, "a")), leafRef(NewLeaf(2, "b")))
	np.put(internal)
	back := np.get(0)
	if back != internal {
		// sync.Pool may drop entries under GC pressure; only the zeroing
		// contract is hard.
		t.Skip("pool dropped the node (GC); zeroing unverifiable this run")
	}
	if *back != (inner[int, string]{}) {
		t.Fatalf("pooled node not zeroed: %+v", back)
	}
}
