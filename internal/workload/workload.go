// Package workload provides access-sequence generators and the exact
// working-set-bound calculator used by every experiment in EXPERIMENTS.md.
//
// The calculator implements Definitions 1 and 2 of the paper directly: the
// access rank of a successful search for x is the number of distinct items
// in the map that have been searched for or inserted since the last prior
// operation on x (including x itself); insertions, deletions and
// unsuccessful searches have access rank n+1. The working-set bound of a
// sequence L is W_L = Σ (log2(r_i) + 1).
package workload

import (
	"math"
	"math/rand"
)

// AccessKind mirrors the map operation kinds.
type AccessKind uint8

const (
	// Get is a search.
	Get AccessKind = iota
	// Insert is an insertion (or update).
	Insert
	// Delete is a deletion.
	Delete
)

// Access is one operation of a workload sequence.
type Access[K comparable] struct {
	Kind AccessKind
	Key  K
}

// fenwick is a binary indexed tree over time slots, counting items whose
// last search-or-insert landed at each slot.
type fenwick struct {
	t     []int
	total int
}

func newFenwick(n int) *fenwick { return &fenwick{t: make([]int, n+1)} }

func (f *fenwick) grow(n int) {
	for len(f.t) <= n {
		f.t = append(f.t, make([]int, len(f.t))...)
	}
}

func (f *fenwick) add(i, d int) {
	f.grow(i)
	f.total += d
	for i++; i < len(f.t); i += i & (-i) {
		f.t[i] += d
	}
}

// prefix returns the count of slots <= i.
func (f *fenwick) prefix(i int) int {
	if i >= len(f.t)-1 {
		return f.total
	}
	s := 0
	for i++; i > 0; i -= i & (-i) {
		s += f.t[i]
	}
	return s
}

// countGreater returns the count of slots > i.
func (f *fenwick) countGreater(i int) int { return f.total - f.prefix(i) }

// RankTracker computes exact access ranks for a sequence of operations per
// Definition 1, simulating map membership as it goes.
type RankTracker[K comparable] struct {
	clock    int
	lastOp   map[K]int // time of the last operation on the key
	slot     map[K]int // time of the last search-or-insert, for in-map keys
	f        *fenwick
	size     int
	presence map[K]bool
}

// NewRankTracker creates a tracker for sequences of roughly n operations.
func NewRankTracker[K comparable](n int) *RankTracker[K] {
	if n < 16 {
		n = 16
	}
	return &RankTracker[K]{
		lastOp:   make(map[K]int),
		slot:     make(map[K]int),
		f:        newFenwick(n),
		presence: make(map[K]bool),
	}
}

// Apply processes one operation and returns its access rank.
func (rt *RankTracker[K]) Apply(a Access[K]) int {
	rt.clock++
	t := rt.clock
	present := rt.presence[a.Key]
	var rank int
	switch {
	case a.Kind == Get && present:
		last, seen := rt.lastOp[a.Key]
		if !seen {
			last = 0
		}
		rank = rt.f.countGreater(last) + 1
	default:
		// Insertion, deletion or unsuccessful search: rank n+1.
		rank = rt.size + 1
	}
	// Update simulated state.
	switch a.Kind {
	case Get:
		if present {
			rt.moveSlot(a.Key, t)
		}
	case Insert:
		if !present {
			rt.presence[a.Key] = true
			rt.size++
		}
		rt.moveSlot(a.Key, t)
	case Delete:
		if present {
			delete(rt.presence, a.Key)
			rt.size--
			rt.clearSlot(a.Key)
		}
	}
	rt.lastOp[a.Key] = t
	return rank
}

func (rt *RankTracker[K]) moveSlot(k K, t int) {
	if old, ok := rt.slot[k]; ok {
		rt.f.add(old, -1)
	}
	rt.slot[k] = t
	rt.f.add(t, 1)
}

func (rt *RankTracker[K]) clearSlot(k K) {
	if old, ok := rt.slot[k]; ok {
		rt.f.add(old, -1)
		delete(rt.slot, k)
	}
}

// WSBound returns the working-set bound W_L = Σ (log2(r_i) + 1) of the
// sequence (Definition 2).
func WSBound[K comparable](ops []Access[K]) float64 {
	rt := NewRankTracker[K](len(ops))
	total := 0.0
	for _, a := range ops {
		r := rt.Apply(a)
		total += math.Log2(float64(r)) + 1
	}
	return total
}

// WSBoundBrute computes the working-set bound by direct simulation of
// Definition 1 in O(N²) time (test oracle for RankTracker).
func WSBoundBrute[K comparable](ops []Access[K]) float64 {
	present := map[K]bool{}
	history := make([]Access[K], 0, len(ops))
	lastOp := map[K]int{}
	total := 0.0
	for i, a := range ops {
		var rank int
		if a.Kind == Get && present[a.Key] {
			since := -1
			if t, ok := lastOp[a.Key]; ok {
				since = t
			}
			distinct := map[K]bool{}
			for j := since + 1; j < i; j++ {
				h := history[j]
				if (h.Kind == Get && present[h.Key]) || h.Kind == Insert {
					// Searched-or-inserted; count only if still in the map.
					if present[h.Key] {
						distinct[h.Key] = true
					}
				}
			}
			delete(distinct, a.Key)
			rank = len(distinct) + 1
		} else {
			rank = len(present) + 1
		}
		switch a.Kind {
		case Insert:
			present[a.Key] = true
		case Delete:
			delete(present, a.Key)
		}
		lastOp[a.Key] = i
		history = append(history, a)
		total += math.Log2(float64(rank)) + 1
	}
	return total
}

// --- Generators ---

// UniformKeys draws n keys uniformly from [0, universe).
func UniformKeys(rng *rand.Rand, n, universe int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(universe)
	}
	return out
}

// ZipfKeys draws n keys from a Zipf(s) distribution over [0, universe),
// for any s >= 0 (s = 0 is uniform). Keys are rank-ordered: key 0 is the
// most popular.
func ZipfKeys(rng *rand.Rand, n, universe int, s float64) []int {
	cdf := zipfCDF(universe, s)
	out := make([]int, n)
	for i := range out {
		out[i] = sampleCDF(rng, cdf)
	}
	return out
}

func zipfCDF(universe int, s float64) []float64 {
	cdf := make([]float64, universe)
	sum := 0.0
	for i := 0; i < universe; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func sampleCDF(rng *rand.Rand, cdf []float64) int {
	u := rng.Float64()
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HotspotKeys draws n keys where a hotProb fraction of accesses hit a
// hotFrac fraction of the universe.
func HotspotKeys(rng *rand.Rand, n, universe int, hotFrac, hotProb float64) []int {
	hot := int(float64(universe) * hotFrac)
	if hot < 1 {
		hot = 1
	}
	out := make([]int, n)
	for i := range out {
		if rng.Float64() < hotProb {
			out[i] = rng.Intn(hot)
		} else {
			out[i] = hot + rng.Intn(universe-hot)
		}
	}
	return out
}

// MovingHotspotKeys is HotspotKeys with the hot set rotating through the
// universe every period accesses — temporal locality that defeats static
// frequency-based structures but suits working-set structures.
func MovingHotspotKeys(rng *rand.Rand, n, universe, hotSize, period int) []int {
	if hotSize < 1 {
		hotSize = 1
	}
	out := make([]int, n)
	base := 0
	for i := range out {
		if i%period == period-1 {
			base = (base + hotSize) % universe
		}
		if rng.Float64() < 0.9 {
			out[i] = (base + rng.Intn(hotSize)) % universe
		} else {
			out[i] = rng.Intn(universe)
		}
	}
	return out
}

// RecencyBoundedKeys generates a sequence where each access (after a
// warm-up prefix) targets the item with recency drawn geometrically with
// mean ~meanRecency: the ideal workload for a working-set structure.
func RecencyBoundedKeys(rng *rand.Rand, n, universe, meanRecency int) []int {
	if meanRecency < 1 {
		meanRecency = 1
	}
	recent := make([]int, 0, n) // most recent last; may contain duplicates
	seen := map[int]bool{}
	out := make([]int, n)
	for i := range out {
		var k int
		if len(seen) < 2 || rng.Float64() < 0.05 {
			k = rng.Intn(universe)
		} else {
			// Pick a recency depth ~ Geometric(1/meanRecency).
			d := 1
			for rng.Float64() > 1.0/float64(meanRecency) && d < len(recent) {
				d++
			}
			k = recent[len(recent)-d]
		}
		out[i] = k
		recent = append(recent, k)
		seen[k] = true
	}
	return out
}

// GetsOf wraps keys as Get accesses.
func GetsOf(keys []int) []Access[int] {
	out := make([]Access[int], len(keys))
	for i, k := range keys {
		out[i] = Access[int]{Kind: Get, Key: k}
	}
	return out
}

// InsertThenGets prefixes Get accesses over keys with one Insert per
// distinct key, so every Get succeeds.
func InsertThenGets(keys []int) []Access[int] {
	seen := map[int]bool{}
	var out []Access[int]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, Access[int]{Kind: Insert, Key: k})
		}
	}
	for _, k := range keys {
		out = append(out, Access[int]{Kind: Get, Key: k})
	}
	return out
}
