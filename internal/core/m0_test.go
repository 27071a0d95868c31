package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/metrics"
)

func TestM0ModelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewM0[int, int](nil)
	ref := map[int]int{}
	for step := 0; step < 30000; step++ {
		k := rng.Intn(400)
		switch rng.Intn(4) {
		case 0:
			old, existed := m.Insert(k, step)
			want, wantExisted := ref[k]
			if existed != wantExisted || (existed && old != want) {
				t.Fatalf("step %d: Insert(%d) = (%d,%v), want (%d,%v)", step, k, old, existed, want, wantExisted)
			}
			ref[k] = step
		case 1:
			got, ok := m.Delete(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Delete(%d) = (%d,%v), want (%d,%v)", step, k, got, ok, want, wantOK)
			}
			delete(ref, k)
		default:
			got, ok := m.Get(k)
			want, wantOK := ref[k]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, k, got, ok, want, wantOK)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(ref))
		}
		if step%1111 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestM0WorkingSetProperty checks Theorem 7 empirically: the cost of an
// access with recency r is O(1 + log r), independent of n.
func TestM0WorkingSetProperty(t *testing.T) {
	cnt := &metrics.Counter{}
	m := NewM0[int, int](cnt)
	const n = 1 << 14
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}
	costOfRecency := func(r int) int64 {
		// Establish: access item 0, then r-1 distinct other items, then
		// re-access item 0 (recency exactly r) and measure.
		m.Get(0)
		for i := 1; i < r; i++ {
			m.Get(i)
		}
		before := cnt.Total()
		m.Get(0)
		return cnt.Total() - before
	}
	// Repeated access to the same item must be O(1)-ish (top segments).
	cHot := costOfRecency(1)
	cWarm := costOfRecency(64)
	cCold := costOfRecency(8192)
	if cHot > cWarm || cWarm > cCold {
		// Monotone in expectation; allow equality but not inversion.
		t.Logf("warning: non-monotone costs %d %d %d", cHot, cWarm, cCold)
	}
	if cCold > 64*max64(cHot, 8) {
		t.Fatalf("recency-8192 cost %d vastly exceeds hot cost %d: working-set property broken", cCold, cHot)
	}
	if cCold > int64(300*math.Log2(n)) {
		t.Fatalf("cold access cost %d not logarithmic in recency", cCold)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestM0PromotionLocality checks the defining M0 behavior: an access pulls
// the item only to the previous segment's front, not all the way to S[0]
// (the localization that enables pipelining in M2).
func TestM0PromotionLocality(t *testing.T) {
	m := NewM0[int, int](nil)
	const n = 300 // occupies segments 0..3 (2+4+16+256)
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Item n-1 was inserted last; insertions land at the back of the last
	// segment, so it sits in the final segment. One access should move it
	// exactly one segment forward, not all the way to S[0].
	last := n - 1
	before, _ := m.find(last)
	if before != len(m.Segments())-1 {
		t.Fatalf("item %d in segment %d before access, want last segment %d", last, before, len(m.Segments())-1)
	}
	if _, ok := m.Get(last); !ok {
		t.Fatalf("item %d lost", last)
	}
	after, _ := m.find(last)
	if after != before-1 {
		t.Fatalf("item %d in segment %d after one access, want %d", last, after, before-1)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestM0DeleteEverything(t *testing.T) {
	m := NewM0[int, int](nil)
	for i := 0; i < 500; i++ {
		m.Insert(i, i)
	}
	for i := 499; i >= 0; i-- {
		if _, ok := m.Delete(i); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after Delete(%d): %v", i, err)
		}
	}
	if m.Len() != 0 || len(m.Segments()) != 0 {
		t.Fatalf("map not empty: len=%d segs=%v", m.Len(), m.Segments())
	}
	// Reuse after emptying.
	m.Insert(1, 1)
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatal("reuse after emptying failed")
	}
}

// m0Model is Section 5's M0 over plain slices: segs[k] holds S[k]'s keys,
// most recent first.
type m0Model struct{ segs [][]int }

// find returns the segment holding k and k's index in it, or -1.
func (o *m0Model) find(k int) (int, int) {
	for i, s := range o.segs {
		if j := slices.Index(s, k); j >= 0 {
			return i, j
		}
	}
	return -1, -1
}

// access moves the hit in S[i] to the front of S[max(i-1, 0)], then S[i-1]'s
// back to S[i]'s front.
func (o *m0Model) access(i, j int) {
	k := o.segs[i][j]
	o.segs[i] = slices.Delete(o.segs[i], j, j+1)
	tgt := max(i-1, 0)
	o.segs[tgt] = slices.Insert(o.segs[tgt], 0, k)
	if i > 0 {
		back := len(o.segs[i-1]) - 1
		o.segs[i] = slices.Insert(o.segs[i], 0, o.segs[i-1][back])
		o.segs[i-1] = o.segs[i-1][:back]
	}
}

// insert puts a fresh key at the back of the last segment, opening a new
// one when that segment is full.
func (o *m0Model) insert(k int) {
	if l := len(o.segs) - 1; l < 0 || len(o.segs[l]) >= capOf(l) {
		o.segs = append(o.segs, nil)
	}
	l := len(o.segs) - 1
	o.segs[l] = append(o.segs[l], k)
}

// delete removes the key at S[i][j] and moves each later segment's front
// to the previous segment's back.
func (o *m0Model) delete(i, j int) {
	o.segs[i] = slices.Delete(o.segs[i], j, j+1)
	for ; i < len(o.segs)-1 && len(o.segs[i+1]) > 0; i++ {
		o.segs[i] = append(o.segs[i], o.segs[i+1][0])
		o.segs[i+1] = o.segs[i+1][1:]
	}
	for len(o.segs) > 0 && len(o.segs[len(o.segs)-1]) == 0 {
		o.segs = o.segs[:len(o.segs)-1]
	}
}

// TestM0PlacementMatchesModel is M0's placement oracle: after every random
// Insert, Get or Delete each segment's recency order is the model's.
func TestM0PlacementMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewM0[int, int](nil)
	o := &m0Model{}
	for step := 0; step < 20000; step++ {
		k := rng.Intn(300)
		i, j := o.find(k)
		switch rng.Intn(5) {
		case 0, 1:
			if m.Insert(k, step); i >= 0 {
				o.access(i, j)
			} else {
				o.insert(k)
			}
		case 2, 3:
			if _, ok := m.Get(k); ok != (i >= 0) {
				t.Fatalf("step %d: Get(%d) found = %v, want %v", step, k, ok, i >= 0)
			}
			if i >= 0 {
				o.access(i, j)
			}
		default:
			if _, ok := m.Delete(k); ok != (i >= 0) {
				t.Fatalf("step %d: Delete(%d) found = %v, want %v", step, k, ok, i >= 0)
			}
			if i >= 0 {
				o.delete(i, j)
			}
		}
		if len(m.segs) != len(o.segs) {
			t.Fatalf("step %d: %d segments, model has %d", step, len(m.segs), len(o.segs))
		}
		for s, seg := range m.segs {
			if have := recencyKeys(seg); !slices.Equal(have, o.segs[s]) {
				t.Fatalf("step %d: S[%d] recency order\n got  %v\n want %v", step, s, have, o.segs[s])
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
