package core

import (
	"cmp"
	"slices"
	"sort"
)

// Epoch slab snapshots. Each final slab segment publishes — at the end of
// every run that mutated its key-map — a view of its contents that
// M2.serveRanges reads instead of the live trees, so ranges stop
// serializing with the pipelined final slab (rangeread.go has the
// composition; DESIGN.md the full argument).
//
// The views are copied at publish, never shared with the live structure:
// the 2-3 trees mutate spine nodes in place, recycle dropped internal
// nodes through the engines' node free-lists, and update leaf payloads in
// place, so a reader following a shared root while a segment run rewrites
// it would tear. A full copy per run would be O(segment) per batch, which
// is exactly the cost profile the final slab exists to avoid — so a
// publish normally appends only the run's net changes as a small delta on
// top of the previous view.
//
// Every snapshot access is serialized by FL[0]: S[m]'s run holds it
// throughout, deeper runs publish before their step-4f release, the
// interface holds it at its own publish points, and the range reader
// holds it for the whole serve. That shared lock is what makes the cheap
// in-place publish safe — the view mutates, but never under a reader —
// and it splits the maintenance cost by who needs it: publishers append
// O(delta) per run and rebuild the flat base only on the amortized
// volume trigger (delta events ~ half the base, so O(1) amortized per
// event); the reader, who is the only party needing a short chain
// (per-key reads touch every delta), compacts an over-long chain at
// load, from the snapshot data alone (segSnap.compacted).

// snapKV is one key event in a snapshot delta: the key now maps to val,
// or (del) has left the segment.
type snapKV[K cmp.Ordered, V any] struct {
	key K
	val V
	del bool
}

const (
	// snapMaxDeltas is the delta-chain length the range reader tolerates
	// before compacting the view: reads touch every delta (newest wins),
	// so the cap bounds the per-key read cost at snapMaxDeltas+1 binary
	// searches. The publisher's size-tiered merging keeps the chain
	// ~log2(dn) long, and the volume trigger bounds dn by half the base,
	// so chains essentially never reach the cap (16 tiers would need a
	// 64k-event backlog) — the reader-side compaction is a backstop, not
	// a steady-state cost.
	snapMaxDeltas = 16
	// snapCompactSlack is the delta-volume allowance on top of the
	// base-proportional rebuild trigger, so small segments don't rebuild
	// on every publish.
	snapCompactSlack = 32
)

// segSnap is one published segment view: a key-sorted tombstone-free base
// plus a chain of key-sorted deltas, oldest first, each holding one net
// event per key. Readers resolve a key by scanning deltas newest to
// oldest, then the base. A nil *segSnap is the empty view (freshly
// created segments have published nothing). Guarded by FL[0] (see the
// package comment); not immutable.
type segSnap[K cmp.Ordered, V any] struct {
	base   []KV[K, V]
	deltas [][]snapKV[K, V]
	dn     int // total delta events, the rebuild trigger
}

// netEvents turns a run's chronological (possibly key-repeating) event
// list into a key-sorted delta with one net event per key: a later event
// on the same key supersedes an earlier one.
func netEvents[K cmp.Ordered, V any](events []snapKV[K, V]) []snapKV[K, V] {
	out := make([]snapKV[K, V], len(events))
	copy(out, events)
	slices.SortStableFunc(out, func(a, b snapKV[K, V]) int { return cmp.Compare(a.key, b.key) })
	w := 0
	for i := range out {
		if i+1 < len(out) && out[i+1].key == out[i].key {
			continue
		}
		out[w] = out[i]
		w++
	}
	return out[:w]
}

// publishDelta publishes the run's net tree changes for this segment:
// normally an O(events) delta append; a flat O(segment) rebuild when the
// accumulated delta volume reaches half the base (amortized O(1) per
// event). events is chronological and may repeat keys. Caller holds FL[0]
// and the locks serializing this segment's mutators.
func (f *fseg[K, V]) publishDelta(events []snapKV[K, V]) {
	if len(events) == 0 {
		return
	}
	s := f.snap.Load()
	if s == nil {
		// First publish: view and tree agree at publish points.
		f.publishFlat()
		return
	}
	delta := netEvents(events)
	s.dn += len(delta)
	// Size-tiered merge: fold the new delta into the chain tail while the
	// tail is not much bigger, so the chain holds geometrically growing
	// deltas and stays O(log dn) long — each event is re-merged O(log)
	// times, and the reader's per-key cost (one search per delta) stays
	// bounded without O(base) rebuilds on its path.
	for n := len(s.deltas); n > 0 && len(s.deltas[n-1]) <= 2*len(delta); n-- {
		delta = mergeDeltas(s.deltas[n-1], delta)
		s.deltas = s.deltas[:n-1]
	}
	s.deltas = append(s.deltas, delta)
	if s.dn >= len(s.base)/2+snapCompactSlack {
		f.publishFlat()
	}
}

// publishFlat publishes a fresh flat view of the live key-map — the
// volume-triggered rebuild, and the seeding path for a segment created
// non-empty. Correct exactly at publish points, where view and tree agree
// (between publishes they may not: a run holds removed items in limbo
// off-tree). Locking contract as in publishDelta.
func (f *fseg[K, V]) publishFlat() {
	f.flatSc = f.seg.km.FlattenInto(f.flatSc)
	base := make([]KV[K, V], len(f.flatSc))
	for i, lf := range f.flatSc {
		base[i] = KV[K, V]{Key: lf.Key, Val: lf.Payload}
	}
	clear(f.flatSc) // don't pin leaves between runs
	f.flatSc = f.flatSc[:0]
	f.snap.Store(&segSnap[K, V]{base: base})
}

// compacted returns an equivalent single-base view, merging the delta
// chain into the base without touching the live tree (valid at any time:
// it is a view-preserving transform of the snapshot alone). The reader
// calls it when the chain outgrew snapMaxDeltas. Cost O(base + dn·log
// chain): deltas merge pairwise balanced, then once into the base.
func (s *segSnap[K, V]) compacted() *segSnap[K, V] {
	work := make([][]snapKV[K, V], len(s.deltas))
	copy(work, s.deltas)
	for len(work) > 1 {
		w := 0
		for i := 0; i+1 < len(work); i += 2 {
			work[w] = mergeDeltas(work[i], work[i+1])
			w++
		}
		if len(work)%2 == 1 {
			work[w] = work[len(work)-1]
			w++
		}
		work = work[:w]
	}
	var d []snapKV[K, V]
	if len(work) == 1 {
		d = work[0]
	}
	base := make([]KV[K, V], 0, len(s.base)+len(d))
	i, j := 0, 0
	for i < len(s.base) || j < len(d) {
		if j == len(d) || (i < len(s.base) && s.base[i].Key < d[j].key) {
			base = append(base, s.base[i])
			i++
			continue
		}
		if i < len(s.base) && s.base[i].Key == d[j].key {
			i++ // delta supersedes base
		}
		if !d[j].del {
			base = append(base, KV[K, V]{Key: d[j].key, Val: d[j].val})
		}
		j++
	}
	return &segSnap[K, V]{base: base}
}

// mergeDeltas merges two key-sorted deltas, the newer (b) superseding the
// older on shared keys. Tombstones are kept: a deeper delta or the base
// may still hold the key.
func mergeDeltas[K cmp.Ordered, V any](a, b []snapKV[K, V]) []snapKV[K, V] {
	out := make([]snapKV[K, V], 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].key < b[j].key:
			out = append(out, a[i])
			i++
		case b[j].key < a[i].key:
			out = append(out, b[j])
			j++
		default:
			out = append(out, b[j])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// get returns the view's verdict for key k: deltas newest to oldest, then
// the base. Nil-safe (nil = empty view).
func (s *segSnap[K, V]) get(k K) (V, bool) {
	var zero V
	if s == nil {
		return zero, false
	}
	for i := len(s.deltas) - 1; i >= 0; i-- {
		d := s.deltas[i]
		j := sort.Search(len(d), func(x int) bool { return d[x].key >= k })
		if j < len(d) && d[j].key == k {
			if d[j].del {
				return zero, false
			}
			return d[j].val, true
		}
	}
	j := sort.Search(len(s.base), func(x int) bool { return s.base[x].Key >= k })
	if j < len(s.base) && s.base[j].Key == k {
		return s.base[j].Val, true
	}
	return zero, false
}

// keyAt returns source src's key at index idx, where sources 0..n-1 are
// the deltas (oldest first) and source n is the base.
func (s *segSnap[K, V]) keyAt(src, idx int) K {
	if src < len(s.deltas) {
		return s.deltas[src][idx].key
	}
	return s.base[idx].Key
}

// visit walks the view's net pairs with lo <= key < hi in ascending key
// order (the full view when bounded is false), yielding each pair until
// yield returns false. The merge is a min-pick across base and deltas:
// when several sources hold the minimal key, the newest delta wins and
// every tied cursor advances; tombstone winners are skipped. Allocation-
// free up to the reader-maintained chain cap; longer chains (possible at
// quiescence, before any reader compacts) fall back to allocating
// cursors.
func (s *segSnap[K, V]) visit(lo, hi K, bounded bool, yield func(K, V) bool) {
	if s == nil {
		return
	}
	n := len(s.deltas)
	var curA, endA [snapMaxDeltas + 1]int
	cur, end := curA[:], endA[:]
	if n+1 > len(cur) {
		cur = make([]int, n+1)
		end = make([]int, n+1)
	}
	for i := 0; i <= n; i++ {
		var src []snapKV[K, V]
		ln := len(s.base)
		if i < n {
			src = s.deltas[i]
			ln = len(src)
		}
		if !bounded {
			cur[i], end[i] = 0, ln
			continue
		}
		if i < n {
			cur[i] = sort.Search(ln, func(x int) bool { return src[x].key >= lo })
			end[i] = sort.Search(ln, func(x int) bool { return src[x].key >= hi })
		} else {
			cur[i] = sort.Search(ln, func(x int) bool { return s.base[x].Key >= lo })
			end[i] = sort.Search(ln, func(x int) bool { return s.base[x].Key >= hi })
		}
	}
	for {
		minSrc := -1
		for i := 0; i <= n; i++ {
			if cur[i] == end[i] {
				continue
			}
			if minSrc < 0 || s.keyAt(i, cur[i]) < s.keyAt(minSrc, cur[minSrc]) {
				minSrc = i
			}
		}
		if minSrc < 0 {
			return
		}
		k := s.keyAt(minSrc, cur[minSrc])
		var v V
		del := false
		fromBase := true
		for i := 0; i < n; i++ {
			if cur[i] < end[i] && s.deltas[i][cur[i]].key == k {
				// Deltas are oldest first, so the last match is the newest.
				v, del = s.deltas[i][cur[i]].val, s.deltas[i][cur[i]].del
				fromBase = false
				cur[i]++
			}
		}
		if cur[n] < end[n] && s.base[cur[n]].Key == k {
			if fromBase {
				v = s.base[cur[n]].Val
			}
			cur[n]++
		}
		if del {
			continue
		}
		if !yield(k, v) {
			return
		}
	}
}

// rangeInto appends the view's net pairs with lo <= key < hi, in
// ascending key order, stopping after bound pairs (bound <= 0 = no
// bound). Nil-safe.
func (s *segSnap[K, V]) rangeInto(lo, hi K, bound int, out []KV[K, V]) []KV[K, V] {
	if s == nil || hi <= lo {
		return out
	}
	n0 := len(out)
	s.visit(lo, hi, true, func(k K, v V) bool {
		out = append(out, KV[K, V]{Key: k, Val: v})
		return bound <= 0 || len(out)-n0 < bound
	})
	return out
}

// netLen returns the number of net-present keys in the view (test hook;
// O(view)). Nil-safe.
func (s *segSnap[K, V]) netLen() int {
	var lo, hi K
	n := 0
	s.visit(lo, hi, false, func(K, V) bool { n++; return true })
	return n
}

// ovKV is one filter-overlay verdict for the range composition: the net
// state of a key with in-flight final slab operations, computed by a
// read-only replay of its filter entry (see M2.collectOverlay). present
// false means the key must be suppressed even if a stale snapshot still
// reports it.
type ovKV[K cmp.Ordered, V any] struct {
	key     K
	val     V
	present bool
}
