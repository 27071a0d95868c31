package core

import (
	"math"
	"math/rand"
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
