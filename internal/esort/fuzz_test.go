// The tests in this file also check core.ESort, the sequential entropy
// sort; core imports esort, so they live in the external test package.
package esort_test

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/esort"
)

// decodeKeys turns fuzz bytes into a small-alphabet key multiset: each
// byte is one key. The tiny key space forces heavy duplication, which is
// exactly the regime the entropy sort exists for.
func decodeKeys(data []byte) []int {
	keys := make([]int, len(data))
	for i, b := range data {
		keys[i] = int(b)
	}
	return keys
}

// checkStablePerm verifies that perm is the stable sorting permutation of
// keys: a permutation of [0,n), non-decreasing by key, with equal keys in
// input order.
func checkStablePerm(t *testing.T, keys []int, perm []int, label string) {
	t.Helper()
	if len(perm) != len(keys) {
		t.Fatalf("%s: perm has %d entries for %d keys", label, len(perm), len(keys))
	}
	seen := make([]bool, len(keys))
	for _, p := range perm {
		if p < 0 || p >= len(keys) || seen[p] {
			t.Fatalf("%s: not a permutation (index %d)", label, p)
		}
		seen[p] = true
	}
	for i := 1; i < len(perm); i++ {
		a, b := keys[perm[i-1]], keys[perm[i]]
		if a > b {
			t.Fatalf("%s: out of order at %d: %d > %d", label, i, a, b)
		}
		if a == b && perm[i-1] > perm[i] {
			t.Fatalf("%s: instability at %d: equal keys in positions %d, %d",
				label, i, perm[i-1], perm[i])
		}
	}
}

// checkRuns verifies the duplicate-combining invariants of Runs: runs
// partition the input, run keys are strictly increasing, and each run
// lists its positions in arrival order.
func checkRuns(t *testing.T, keys []int, perm []int, label string) {
	t.Helper()
	runs := esort.Runs(keys, perm)
	total := 0
	prevKey := -1
	for r, run := range runs {
		if len(run) == 0 {
			t.Fatalf("%s: empty run %d", label, r)
		}
		k := keys[run[0]]
		if k <= prevKey {
			t.Fatalf("%s: run keys not strictly increasing at run %d (%d after %d)",
				label, r, k, prevKey)
		}
		prevKey = k
		for i, p := range run {
			if keys[p] != k {
				t.Fatalf("%s: run %d mixes keys %d and %d", label, r, k, keys[p])
			}
			if i > 0 && run[i-1] > p {
				t.Fatalf("%s: run %d positions not in arrival order", label, r)
			}
		}
		total += len(run)
	}
	if total != len(keys) {
		t.Fatalf("%s: runs cover %d of %d positions", label, total, len(keys))
	}
}

// FuzzPESort checks the sortedness, stability, permutation and
// duplicate-combining invariants of both entropy sorts on arbitrary key
// multisets, against the standard library's stable sort as the oracle.
func FuzzPESort(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{7}, uint8(1))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3}, uint8(0))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0}, uint8(2))
	f.Add([]byte{5, 1, 5, 1, 5, 1, 200, 0, 200, 0}, uint8(0))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, stratByte uint8) {
		if len(data) > 1<<16 {
			t.Skip("cap input size")
		}
		keys := decodeKeys(data)
		strat := esort.PivotStrategy(stratByte % 2)

		perm := esort.PESort(keys, strat)
		checkStablePerm(t, keys, perm, "PESort")
		checkRuns(t, keys, perm, "PESort")

		seqPerm := core.ESort(keys)
		checkStablePerm(t, keys, seqPerm, "ESort")
		checkRuns(t, keys, seqPerm, "ESort")

		// The stable sorting permutation is unique, so both must equal the
		// standard library oracle.
		oracle := make([]int, len(keys))
		for i := range oracle {
			oracle[i] = i
		}
		sort.SliceStable(oracle, func(a, b int) bool { return keys[oracle[a]] < keys[oracle[b]] })
		for i := range oracle {
			if perm[i] != oracle[i] {
				t.Fatalf("PESort diverges from oracle at %d: %d vs %d", i, perm[i], oracle[i])
			}
			if seqPerm[i] != oracle[i] {
				t.Fatalf("ESort diverges from oracle at %d: %d vs %d", i, seqPerm[i], oracle[i])
			}
		}
	})
}

func TestESortSortsStably(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 10, 100, 5000} {
		for _, u := range []int{1, 2, 7, 100, 1 << 20} {
			keys := make([]int, n)
			for i := range keys {
				keys[i] = rng.Intn(u)
			}
			checkStablePerm(t, keys, core.ESort(keys), "ESort")
		}
	}
}

// TestESortMatchesPESort: both entropy sorts produce identical stable
// permutations for any input.
func TestESortMatchesPESort(t *testing.T) {
	f := func(raw []uint8) bool {
		keys := make([]int, len(raw))
		for i, r := range raw {
			keys[i] = int(r % 32)
		}
		a := core.ESort(keys)
		b := esort.PESort(keys, esort.MedianOfMedians)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
