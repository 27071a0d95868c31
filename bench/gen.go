package main

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
)

// zipfCDF returns the cumulative rank distribution of Zipf(s) over n
// ranks. It is built once per workload and shared read-only by every
// connection's generator.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

const (
	zipfS         = 0.99
	meanRecency   = 64
	recencyWindow = 4096 // how far back a recency draw can reach
	// rankScramble spreads popularity ranks over the key space (an odd
	// multiplier is a bijection modulo a power of two), so hot keys are
	// not lexicographic neighbours in the server's trees.
	rankScramble = 0x9E3779B1
)

// keyGen draws key indices in [0, universe) from one distribution. One
// generator per connection; the same seed gives the same sequence.
type keyGen struct {
	rng      *rand.Rand
	universe int
	dist     dist
	cdf      []float64
	recent   []int32 // ring of the last accesses (distRecency)
	n        int     // accesses recorded so far
}

func newKeyGen(w *workload, cdf []float64, seed int64) *keyGen {
	g := &keyGen{rng: rand.New(rand.NewSource(seed)), universe: w.Universe, dist: w.Dist, cdf: cdf}
	if w.Dist == distRecency {
		g.recent = make([]int32, recencyWindow)
	}
	return g
}

func (g *keyGen) next() int {
	switch g.dist {
	case distZipf:
		u := g.rng.Float64()
		rank := sort.Search(len(g.cdf), func(i int) bool { return g.cdf[i] >= u })
		if rank == len(g.cdf) {
			rank--
		}
		return (rank * rankScramble) & (g.universe - 1)
	case distRecency:
		var k int
		filled := min(g.n, len(g.recent))
		if filled < 2 || g.rng.Float64() < 0.05 {
			k = g.rng.Intn(g.universe)
		} else {
			// Recency depth ~ Geometric(1/meanRecency), by inversion.
			d := 1 + int(math.Log(1-g.rng.Float64())/math.Log(1-1.0/meanRecency))
			d = min(d, filled)
			k = int(g.recent[(g.n-d)%len(g.recent)])
		}
		g.recent[g.n%len(g.recent)] = int32(k)
		g.n++
		return k
	default:
		return g.rng.Intn(g.universe)
	}
}

// appendKey appends the fixed-width key of index idx: lexicographic
// order is numeric order, which SCAN relies on.
func appendKey(b []byte, idx int) []byte {
	b = append(b, 'k')
	s := strconv.Itoa(idx)
	for i := len(s); i < keyBytes-1; i++ {
		b = append(b, '0')
	}
	return append(b, s...)
}

func keyOf(idx int) string { return string(appendKey(make([]byte, 0, keyBytes), idx)) }

// appendValue appends the 64-byte value "key:conn:seq:" padded with '.'.
// Every value ever stored names its key, the connection that owns the
// key and that connection's write sequence number, which is all the
// oracle needs.
func appendValue(b []byte, idx, conn int, seq uint32) []byte {
	start := len(b)
	b = appendKey(b, idx)
	b = append(b, ':')
	b = strconv.AppendInt(b, int64(conn), 10)
	b = append(b, ':')
	b = strconv.AppendUint(b, uint64(seq), 10)
	b = append(b, ':')
	for len(b)-start < valueBytes {
		b = append(b, '.')
	}
	return b
}

// parseValue splits a stored value back into its fields.
func parseValue(v string) (key string, conn int, seq uint32, ok bool) {
	if len(v) < keyBytes+1 || v[keyBytes] != ':' {
		return "", 0, 0, false
	}
	key = v[:keyBytes]
	rest := v[keyBytes+1:]
	i := 0
	for i < len(rest) && rest[i] != ':' {
		i++
	}
	if i == len(rest) {
		return "", 0, 0, false
	}
	c, err := strconv.Atoi(rest[:i])
	if err != nil {
		return "", 0, 0, false
	}
	rest = rest[i+1:]
	j := 0
	for j < len(rest) && rest[j] != ':' {
		j++
	}
	if j == len(rest) {
		return "", 0, 0, false
	}
	s, err := strconv.ParseUint(rest[:j], 10, 32)
	if err != nil {
		return "", 0, 0, false
	}
	return key, c, uint32(s), true
}
