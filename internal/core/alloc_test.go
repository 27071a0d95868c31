package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// TestAllocsM1FreshInsert bounds the mallocs a brand-new key costs M1 at
// batch 128, with the server's string keys and values. Measured 1.21: the
// item's one leaf and ~0.2 routing nodes the last segment's two growing
// trees take from the heap (a node of up to 16 children per ~11 leaves, and
// the levels above them); the batch's leaf slice is the slab's moveScratch.
// It was 1.29 when a fresh key entered S[0] and every segment's overflow was
// popped into the next, 18.3 when every level of that made its own slices
// and every batch-op recursion step heap-allocated its two results, 4.73
// when the key-maps were taken apart and rejoined around every key, 4.61
// with 2-3 routing nodes (~2.5 of them per insert), and 2.32 when the
// recency-map had a leaf of its own for every item.
// Skipped under -race (inflated counts).
func TestAllocsM1FreshInsert(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	const preload, batch, batches = 1 << 15, 128, 64
	m := NewM1[string, string](Config{P: 2})
	defer m.Close()
	val := string(make([]byte, 64))
	key := func(i int) string { return fmt.Sprintf("k%08d", i*7919%(1<<24)) }
	all := make([][]Op[string, string], preload/batch+batches)
	for j := range all {
		all[j] = make([]Op[string, string], batch)
		for i := range all[j] {
			all[j][i] = Op[string, string]{Kind: OpInsert, Key: key(j*batch + i), Val: val}
		}
	}
	var res []Result[string]
	for _, ops := range all[:preload/batch] { // preload, and warm scratch and pools
		res = m.ApplyInto(ops, res)
	}
	m.Quiesce()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ops := range all[preload/batch:] {
		res = m.ApplyInto(ops, res)
	}
	m.Quiesce()
	runtime.ReadMemStats(&after)
	perInsert := float64(after.Mallocs-before.Mallocs) / (batch * batches)
	t.Logf("%.2f mallocs per fresh insert at batch %d", perInsert, batch)
	const ceiling = 1.3
	if perInsert > ceiling {
		t.Errorf("fresh insert: %.2f mallocs per item at batch %d, ceiling %.1f", perInsert, batch, ceiling)
	}
}

// TestAllocsM2FinalSlabRun bounds the steady-state allocation cost of
// operations that travel the full M2 pipeline — filter, buffered final
// slab segment runs. M2 groups and filter entries are allocated per batch
// by design (they outlive the interface batch), so the ceiling is per
// operation rather than zero; what it guards is the run scratch of
// fseg.runLocked. Skipped under -race (inflated counts).
func TestAllocsM2FinalSlabRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	m := NewM2[int, int](Config{P: 4})
	defer m.Close()
	const n = 4096
	for i := 0; i < n; i++ {
		m.Insert(i, i)
	}
	ops := make([]Op[int, int], 64)
	rng := rand.New(rand.NewSource(7))
	refill := func() {
		for i := range ops {
			k := rng.Intn(n)
			if i%4 == 0 {
				ops[i] = Op[int, int]{Kind: OpInsert, Key: k, Val: k}
			} else {
				ops[i] = Op[int, int]{Kind: OpGet, Key: k}
			}
		}
	}
	for i := 0; i < 50; i++ { // warm scratch and pools
		refill()
		m.Apply(ops)
	}
	m.Quiesce()
	perBatch := testing.AllocsPerRun(100, func() {
		refill()
		m.Apply(ops)
		m.Quiesce()
	})
	perOp := perBatch / float64(len(ops))
	t.Logf("%.2f allocs/op (%.0f/batch)", perOp, perBatch)
	// Measured 6.2 (17 while every run also published snapshot deltas):
	// group frames and their call slices, filter entries, tree leaf/node
	// churn across first slab, filter and final slab; ceiling ~2x.
	const ceiling = 13.0
	if perOp > ceiling {
		t.Errorf("M2 pipeline churn: %.2f allocs/op (%.0f/batch), ceiling %.1f", perOp, perBatch, ceiling)
	}
}
