package core

import (
	"math"
	"testing"
)

// Failure-injection tests: the engines and substrates must fail loudly on
// contract violations rather than corrupting state.

func TestM1UseAfterClosePanics(t *testing.T) {
	m := NewM1[int, int](Config{P: 2})
	m.Insert(1, 1)
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on use after Close")
		}
	}()
	m.Get(1)
}

func TestM2UseAfterClosePanics(t *testing.T) {
	m := NewM2[int, int](Config{P: 2})
	m.Insert(1, 1)
	m.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on use after Close")
		}
	}()
	m.Get(1)
}

func TestM2RejectsRange(t *testing.T) {
	m := NewM2[int, int](Config{P: 2})
	defer m.Close()
	m.Insert(1, 1)
	req := RangeReq[int, int]{Hi: 10}
	ops := []Op[int, int]{{Kind: OpGet, Key: 1}, {Kind: OpRange, Key: 0, Range: &req}}
	for name, submit := range map[string]func(){
		"Apply":     func() { m.Apply(ops) },
		"ApplyInto": func() { m.ApplyInto(ops[1:], make([]Result[int], 1)) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "core: M2 does not serve OpRange" {
					t.Fatalf("%s: recovered %v, want the OpRange panic", name, r)
				}
			}()
			submit()
		}()
	}
	// The rejected batches submitted nothing: the map still works and drains.
	if v, ok := m.Get(1); !ok || v != 1 {
		t.Fatalf("Get(1) after rejected ranges = (%d, %v)", v, ok)
	}
}

func TestM2RejectsBudget(t *testing.T) {
	defer func() {
		if r := recover(); r != "core: M2 has no byte budget" {
			t.Fatalf("recovered %v, want the byte-budget panic", r)
		}
	}()
	NewM2[int, int](Config{P: 2, MaxBytes: 1 << 20})
}

func TestSegmentRemoveAbsentPanics(t *testing.T) {
	s := newSegment[int, int](2, nil, nil)
	var ms moveScratch[int, int]
	s.pushBack(ms.newItems([]int{1, 2, 3}, []int{1, 2, 3}))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic removing absent key")
		}
	}()
	ms.removeItems(s, []int{1, 99})
}

func TestSegmentMoveRoundTrip(t *testing.T) {
	a := newSegment[int, int](3, nil, nil)
	b := newSegment[int, int](3, nil, nil)
	var ms moveScratch[int, int]
	a.pushBack(ms.newItems([]int{1, 2, 3, 4, 5}, []int{10, 20, 30, 40, 50}))
	mb := ms.popBack(a, 2, false) // items 4, 5 (least recent)
	b.pushFront(mb)
	if a.size() != 3 || b.size() != 2 {
		t.Fatalf("sizes %d, %d", a.size(), b.size())
	}
	if err := checkSegs([]*segment[int, int]{a}); err != nil {
		t.Fatal(err)
	}
	if err := checkSegs([]*segment[int, int]{b}); err != nil {
		t.Fatal(err)
	}
	// Values travel with the items.
	leaf, ok := b.km.Get(4)
	if !ok || leaf.Payload != 40 {
		t.Fatal("value lost in transit")
	}
	// And back again.
	a.pushBack(ms.popFront(b, 2, false))
	if a.size() != 5 || b.size() != 0 {
		t.Fatalf("sizes after return %d, %d", a.size(), b.size())
	}
	if err := checkSegs([]*segment[int, int]{a}); err != nil {
		t.Fatal(err)
	}
}

func TestCapOf(t *testing.T) {
	want := []int{2, 4, 16, 256, 65536, 1 << 32}
	for k, w := range want {
		if capOf(k) != w {
			t.Fatalf("capOf(%d) = %d, want %d", k, capOf(k), w)
		}
	}
	if capOf(6) != 1<<62 || capOf(10) != 1<<62 {
		t.Fatal("capOf should saturate beyond segment 5")
	}
	// A tree holds at most 2^31-1 leaves: S[deepKM] fits in one and the next
	// segment does not, so that one is the last there is.
	if capOf(deepKM) > math.MaxInt32 || capOf(deepKM+1) <= math.MaxInt32 {
		t.Fatalf("deepKM = %d is not the last segment a tree can hold", deepKM)
	}
	if capPrefix(2) != 2+4+16 {
		t.Fatalf("capPrefix(2) = %d", capPrefix(2))
	}
	if capPrefix(10) != 1<<62 {
		t.Fatal("capPrefix should saturate")
	}
}

func TestGroupResolveReplaysArrivalOrder(t *testing.T) {
	g := &group[int, string]{key: 7}
	mk := func(kind OpKind, val string) *call[int, string] {
		return &call[int, string]{op: Op[int, string]{Kind: kind, Key: 7, Val: val}, done: make(chan struct{}, 1)}
	}
	cs := []*call[int, string]{
		mk(OpGet, ""), mk(OpInsert, "a"), mk(OpGet, ""), mk(OpDelete, ""), mk(OpGet, ""), mk(OpInsert, "b"),
	}
	g.calls = cs
	present, val := g.resolve(true, "orig", nil)
	if !present || val != "b" {
		t.Fatalf("net state (%v, %q)", present, val)
	}
	wants := []Result[string]{
		{"orig", true}, // Get sees original
		{"orig", true}, // Insert reports previous value
		{"a", true},    // Get sees inserted value
		{"a", true},    // Delete removes "a"
		{"", false},    // Get misses
		{"", false},    // Insert reports no previous value
	}
	for i, c := range cs {
		if c.res != wants[i] {
			t.Fatalf("call %d result %+v, want %+v", i, c.res, wants[i])
		}
	}
	if !g.resolved {
		t.Fatal("group not marked resolved")
	}
}
