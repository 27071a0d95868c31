package twothree

import (
	"math/rand"
	"testing"
)

// leaf is the leaf of the tests' sequences; its key only labels it.
type leaf = Node[int, int]

// mint makes a leaf for each key: a sequence is pushed leaves, it makes none.
func mint(keys []int) []*leaf {
	leaves := make([]*leaf, len(keys))
	for i, k := range keys {
		leaves[i] = NewLeaf(k, 0)
	}
	return leaves
}

// seqKeys returns the keys of s's leaves in recency order.
func seqKeys(s *Seq[int, int]) []int {
	var keys []int
	for _, lf := range s.Flatten() {
		keys = append(keys, lf.Key)
	}
	return keys
}

func checkSeq(t *testing.T, s *Seq[int, int], want []int) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid seq: %v", err)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	got := seqKeys(s)
	for i, k := range got {
		if k != want[i] {
			t.Fatalf("rank %d = %d, want %d (all: %v vs %v)", i, k, want[i], got, want)
		}
	}
}

func TestSeqRemoveByPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(500) + 5
		s := NewSeq[int, int](0, nil)
		leaves := mint(span(0, n, 1))
		s.PushBackLeaves(leaves)
		// Pick a random subset of leaves, in shuffled order.
		perm := rng.Perm(n)
		b := rng.Intn(n) + 1
		var pick []*leaf
		picked := map[int]bool{}
		for _, i := range perm[:b] {
			pick = append(pick, leaves[i])
			picked[i] = true
		}
		removed := s.RemoveInto(pick, make([]*leaf, len(pick)))
		if len(removed) != b {
			t.Fatalf("Remove returned %d, want %d", len(removed), b)
		}
		// Removed leaves come back in recency (ascending key) order.
		for i := 1; i < len(removed); i++ {
			if removed[i-1].Key >= removed[i].Key {
				t.Fatal("Remove output not in recency order")
			}
		}
		var want []int
		for i := 0; i < n; i++ {
			if !picked[i] {
				want = append(want, i)
			}
		}
		checkSeq(t, s, want)
	}
}

func TestSeqPushFrontLeavesIdentity(t *testing.T) {
	s := NewSeq[int, int](0, nil)
	s.PushBackLeaves(mint([]int{1, 2, 3}))
	moved := s.PopBack(2, nil) // leaves 2, 3
	s2 := NewSeq[int, int](1, nil)
	s2.PushBackLeaves(mint([]int{7, 8}))
	s2.PushFrontLeaves(moved)
	checkSeq(t, s2, []int{2, 3, 7, 8})
	checkSeq(t, s, []int{1})
	if s2.Flatten()[0] != moved[0] {
		t.Fatal("leaf identity lost across transfer")
	}
	if !s2.Owns(moved[0]) || s.Owns(moved[0]) {
		t.Fatal("a moved leaf is not owned by the sequence it moved to alone")
	}
}
