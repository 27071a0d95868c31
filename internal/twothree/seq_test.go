package twothree

import (
	"math/rand"
	"testing"
)

// seqKeyModel mirrors a Seq as a plain slice of keys, most recent first.
type seqKeyModel []int

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

func checkSeq(t *testing.T, s *Seq[int, int], m seqKeyModel) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid seq: %v", err)
	}
	if s.Len() != len(m) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(m))
	}
	got := seqKeys(s)
	for i, k := range got {
		if k != m[i] {
			t.Fatalf("rank %d = %d, want %d (all: %v vs %v)", i, k, m[i], got, m)
		}
	}
}

func TestSeqPushPop(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := NewSeq[int, int](nil)
	var m seqKeyModel
	next := 0
	for step := 0; step < 3000; step++ {
		switch rng.Intn(4) {
		case 0: // push front
			b := rng.Intn(5) + 1
			keys := make([]int, b)
			for i := range keys {
				keys[i] = next
				next++
			}
			s.PushFrontLeaves(mint(keys))
			m = append(append(seqKeyModel{}, keys...), m...)
		case 1: // push back
			b := rng.Intn(5) + 1
			keys := make([]int, b)
			for i := range keys {
				keys[i] = next
				next++
			}
			s.PushBackLeaves(mint(keys))
			m = append(m, keys...)
		case 2: // pop front
			b := rng.Intn(4)
			want := b
			if want > len(m) {
				want = len(m)
			}
			got := s.PopFront(b, nil)
			if len(got) != want {
				t.Fatalf("PopFront returned %d, want %d", len(got), want)
			}
			for i, lf := range got {
				if lf.Key != m[i] {
					t.Fatalf("PopFront order wrong")
				}
			}
			m = m[want:]
		default: // pop back
			b := rng.Intn(4)
			want := b
			if want > len(m) {
				want = len(m)
			}
			got := s.PopBack(b, nil)
			if len(got) != want {
				t.Fatalf("PopBack returned %d, want %d", len(got), want)
			}
			for i, lf := range got {
				if lf.Key != m[len(m)-want+i] {
					t.Fatalf("PopBack order wrong")
				}
			}
			m = m[:len(m)-want]
		}
		if step%199 == 0 {
			checkSeq(t, s, m)
		}
	}
	checkSeq(t, s, m)
}

func TestSeqRemoveByPointers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(500) + 5
		s := NewSeq[int, int](nil)
		keys := make([]int, n)
		for i := range keys {
			keys[i] = i
		}
		leaves := mint(keys)
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
		removed := s.RemoveInto(pick, make([]int, len(pick)), make([]*leaf, len(pick)))
		if len(removed) != b {
			t.Fatalf("Remove returned %d, want %d", len(removed), b)
		}
		// Removed leaves come back in recency (ascending key) order.
		for i := 1; i < len(removed); i++ {
			if removed[i-1].Key >= removed[i].Key {
				t.Fatal("Remove output not in recency order")
			}
		}
		var m seqKeyModel
		for i := 0; i < n; i++ {
			if !picked[i] {
				m = append(m, i)
			}
		}
		checkSeq(t, s, m)
	}
}

func TestSeqRankOfAndKth(t *testing.T) {
	s := NewSeq[int, int](nil)
	leaves := mint([]int{10, 11, 12, 13, 14, 15})
	s.PushBackLeaves(leaves)
	for i, lf := range leaves {
		if got := s.RankOf(lf); got != i {
			t.Fatalf("RankOf leaf %d = %d", i, got)
		}
		if got := s.Kth(i); got != lf {
			t.Fatalf("Kth(%d) wrong", i)
		}
	}
	if s.Kth(6) != nil || s.Kth(-1) != nil {
		t.Fatal("Kth out of range should be nil")
	}
	// After a front push, old ranks shift.
	s.PushFrontLeaves(mint([]int{99}))
	if got := s.RankOf(leaves[0]); got != 1 {
		t.Fatalf("RankOf after PushFront = %d, want 1", got)
	}
}

func TestSeqPushFrontLeavesIdentity(t *testing.T) {
	s := NewSeq[int, int](nil)
	s.PushBackLeaves(mint([]int{1, 2, 3}))
	moved := s.PopBack(2, nil) // leaves 2, 3
	s2 := NewSeq[int, int](nil)
	s2.PushBackLeaves(mint([]int{7, 8}))
	s2.PushFrontLeaves(moved)
	if got := seqKeys(s2); len(got) != 4 || got[0] != 2 || got[1] != 3 || got[2] != 7 || got[3] != 8 {
		t.Fatalf("got %v", got)
	}
	if s2.Kth(0) != moved[0] {
		t.Fatal("leaf identity lost across transfer")
	}
	if err := s2.Validate(); err != nil {
		t.Fatal(err)
	}
}
