package shard

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
)

// stopWorkers ends every shard worker and installs wake channels that no
// goroutine reads, so a posted sub-batch stays in its slot until its
// caller takes it back.
func stopWorkers[K cmp.Ordered, V any](m *Map[K, V]) {
	for i := range m.wake {
		close(m.wake[i])
		m.wake[i] = make(chan struct{}, 1)
	}
}

// model is a sequential reference map: ops applied one at a time, in
// submission order.
type model map[int]int

func (md model) apply(op core.Op[int, int]) core.Result[int] {
	v, ok := md[op.Key]
	switch op.Kind {
	case core.OpInsert:
		md[op.Key] = op.Val
	case core.OpDelete:
		delete(md, op.Key)
	}
	return core.Result[int]{Val: v, OK: ok}
}

// page returns the model's pairs in [lo, hi), in key order.
func (md model) page(lo, hi int) []Entry[int, int] {
	var out []Entry[int, int]
	for k, v := range md {
		if k >= lo && k < hi {
			out = append(out, Entry[int, int]{Key: k, Val: v})
		}
	}
	slices.SortFunc(out, func(a, b Entry[int, int]) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// randomBatches cuts up to 3 batches of up to 5 random ops on keys
// [base, base+span), applies them to md in order and returns the
// results md gave. Empty batches and calls with no ops are among them.
func randomBatches(rng *rand.Rand, md model, base, span int) ([][]core.Op[int, int], [][]core.Result[int], []core.Result[int]) {
	var want []core.Result[int]
	batches := make([][]core.Op[int, int], rng.Intn(4))
	dsts := make([][]core.Result[int], len(batches))
	for b := range batches {
		for range rng.Intn(6) {
			op := core.Op[int, int]{Kind: core.OpGet, Key: base + rng.Intn(span)}
			switch rng.Intn(3) {
			case 0:
				op.Kind, op.Val = core.OpInsert, rng.Intn(1000)
			case 1:
				op.Kind = core.OpDelete
			}
			batches[b] = append(batches[b], op)
			want = append(want, md.apply(op))
		}
		dsts[b] = make([]core.Result[int], len(batches[b]))
	}
	return batches, dsts, want
}

// checkScattered compares the results delivered into dsts with want.
func checkScattered(dsts [][]core.Result[int], want []core.Result[int]) error {
	i := 0
	for b, dst := range dsts {
		for j, got := range dst {
			if got != want[i] {
				return fmt.Errorf("batch %d op %d: got %+v, want %+v", b, j, got, want[i])
			}
			i++
		}
	}
	return nil
}

// TestFanoutWithoutWorkers holds the claim rule's liveness: with no
// shard worker left to run a posted sub-batch, ApplyScattered (with and
// without work) and RangePage still return, because the caller takes
// back every sub-batch no worker started. Results equal a sequential
// model's, and work runs exactly once per call, an empty one included.
func TestFanoutWithoutWorkers(t *testing.T) {
	m := New[int, int](Config{Shards: 4, P: 2})
	defer m.Close()
	stopWorkers(m)
	md := model{}
	rng := rand.New(rand.NewSource(31))
	for round := range 400 {
		batches, dsts, want := randomBatches(rng, md, 0, 64)
		works := 0
		var work func()
		if round%2 == 0 {
			work = func() { works++ }
		}
		m.ApplyScattered(batches, dsts, work)
		if err := checkScattered(dsts, want); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if work != nil && works != 1 {
			t.Fatalf("round %d: work ran %d times, want 1", round, works)
		}
		page, more := m.RangePage(0, false, 64, 0, nil)
		if wantPage := md.page(0, 64); !slices.Equal(page, wantPage) || more {
			t.Fatalf("round %d: RangePage = %v (more %v), want %v", round, page, more, wantPage)
		}
	}
	works := 0
	m.ApplyScattered(nil, nil, func() { works++ })
	if works != 1 {
		t.Fatalf("empty call: work ran %d times, want 1", works)
	}
}

// TestFanoutRacingCallers races 8 callers' ApplyScattered and RangePage
// on 2 shards, so posts often find another caller's sub-batch still in
// the slot and apply their own at once. Each caller owns its keys, so
// its results and pages must equal its own sequential model's.
func TestFanoutRacingCallers(t *testing.T) {
	m := New[int, int](Config{Shards: 2, P: 2})
	defer m.Close()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			md := model{}
			rng := rand.New(rand.NewSource(int64(g)))
			base := g * 1000
			for round := range 300 {
				batches, dsts, want := randomBatches(rng, md, base, 32)
				works := 0
				var work func()
				if round%2 == 0 {
					work = func() { works++ }
				}
				m.ApplyScattered(batches, dsts, work)
				if err := checkScattered(dsts, want); err != nil {
					t.Errorf("caller %d round %d: %v", g, round, err)
					return
				}
				if work != nil && works != 1 {
					t.Errorf("caller %d round %d: work ran %d times, want 1", g, round, works)
					return
				}
				page, _ := m.RangePage(base, false, base+32, 0, nil)
				if wantPage := md.page(base, base+32); !slices.Equal(page, wantPage) {
					t.Errorf("caller %d round %d: RangePage = %v, want %v", g, round, page, wantPage)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFanoutCallerKeepsOneSubBatch pins the caller's share of the claim
// rule: without work the caller applies its first sub-batch itself, so a
// batch on one shard never reaches a worker. With work every sub-batch is
// posted, and either way each is counted once, by whoever applied it.
func TestFanoutCallerKeepsOneSubBatch(t *testing.T) {
	const single = 500
	m := New[int, int](Config{Shards: 4, P: 2})
	defer m.Close()
	for i := range single {
		m.ApplyInto([]core.Op[int, int]{{Kind: core.OpInsert, Key: i, Val: i}}, nil)
	}
	caller, worker := m.FanoutStats()
	if caller != single || worker != 0 {
		t.Fatalf("%d one-shard batches: %d sub-batches on the caller, %d on a worker; want %d and 0",
			single, caller, worker, single)
	}
	rng := rand.New(rand.NewSource(7))
	subs := 0
	for round := range 200 {
		ops := make([]core.Op[int, int], 1+rng.Intn(16))
		shards := map[int]bool{}
		for i := range ops {
			ops[i] = core.Op[int, int]{Kind: core.OpGet, Key: rng.Intn(1000)}
			shards[m.shardOf(ops[i].Key)] = true
		}
		subs += len(shards)
		var work func()
		if round%2 == 0 {
			work = func() {}
		}
		m.ApplyScattered([][]core.Op[int, int]{ops}, [][]core.Result[int]{make([]core.Result[int], len(ops))}, work)
	}
	c, w := m.FanoutStats()
	if got := (c - caller) + (w - worker); got != int64(subs) {
		t.Errorf("%d sub-batches applied, %d counted (caller %d, worker %d)", subs, got, c-caller, w-worker)
	}
}
