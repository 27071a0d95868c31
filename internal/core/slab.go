package core

import (
	"cmp"
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/twothree"
)

// slab is a run of consecutive working-set segments processed M1-style:
// M1's whole structure is one slab, and M2's first slab is a bounded one.
//
// The scratch fields are per-pass buffers reused across batches; a slab is
// only ever driven by one engine run at a time (M1's activation, M2's
// interface activation), so they need no locking. They are what keeps the
// steady-state segment pass allocation-free (DESIGN.md "Allocation
// discipline").
type slab[K cmp.Ordered, V any] struct {
	segs  []*segment[K, V]
	cnt   *metrics.Counter
	obs   *obs.EngineObs           // depth telemetry sink (nil = off)
	pool  *twothree.NodePool[K, V] // the engine's one free-list of routing nodes
	mem   *memAcct[K, V]           // byte accountant (nil in M2; see core.go)
	hooks *KeyHooks[K, V]          // per-key sidecar hooks (nil = off, always in M2; see ops.go)
	deep  bool                     // one key-map, and search slices on S[0..deepKM-1] (M1; see deepKM)

	keySc    []K               // keys of the pending batch's groups
	foundSc  []*segLeaf[K, V]  // lookup result
	fKeys    []K               // keys of found groups (sorted subset)
	fGroups  []*group[K, V]    // groups of found keys, aligned with fKeys
	fLeaves  []*segLeaf[K, V]  // leaves of found keys, aligned with fKeys
	deadSc   []*segLeaf[K, V]  // leaves of found groups that deleted their item
	fPresent []bool            // net-present after resolve, aligned with fKeys
	finished []*group[K, V]    // groups completed this pass
	insKeys  []K               // finish's insertion keys
	insVals  []V               // finish's insertion values
	ms       moveScratch[K, V] // segment removal scratch
}

// grow returns s[:n], reallocating when the capacity is short.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// pass processes the pending groups at segment k (Section 6.1): search,
// resolve found groups, promote accessed items to the front of S[k-1],
// restore the capacity invariant for S[0..k-1], and return the groups that
// continue, along with the map-size delta (negative for net deletions).
// Successful searches/updates are completed (results delivered) here.
// pending is compacted in place; the returned slice aliases it.
func (s *slab[K, V]) pass(k int, pending []*group[K, V]) (next []*group[K, V], sizeDelta int) {
	seg := s.segs[k]
	found := s.lookup(k, pending)

	fKeys := s.fKeys[:0]
	fGroups := s.fGroups[:0]
	fLeaves := s.fLeaves[:0]
	for i, lf := range found {
		if lf != nil {
			fKeys = append(fKeys, pending[i].key)
			fGroups = append(fGroups, pending[i])
			fLeaves = append(fLeaves, lf)
		}
	}
	s.fKeys, s.fGroups, s.fLeaves = fKeys, fGroups, fLeaves
	if len(fKeys) > 0 {
		if s.obs != nil {
			n := 0
			for _, g := range fGroups {
				n += len(g.calls)
			}
			s.obs.RecordLookup(obs.SrcFirstSlab, k, n)
		}
		tgt := max(k-1, 0)
		// Bound for a segment of the same key-map, the items stay in it.
		keepKM := s.segs[tgt].km == seg.km
		var mb moveBatch[K, V]
		if keepKM {
			mb = s.ms.removeRec(seg, fLeaves)
		} else {
			mb = s.ms.removeItems(seg, fKeys)
		}
		s.fPresent = grow(s.fPresent, len(fGroups))
		finished, dead := s.finished[:0], s.deadSc[:0]
		for i, g := range fGroups {
			old := mb.kmLeaves[i].Payload
			// Present observation: consult the TTL ghost hook first. A
			// past-deadline item replays as absent — the observation
			// deletes the dead incarnation through the normal delete
			// machinery, at the key's serialization point.
			obsP, base := true, old
			if s.hooks.ghost(g.key) {
				var zero V
				obsP, base = false, zero
			}
			p, v := g.resolve(obsP, base, s.hooks)
			s.fPresent[i] = p
			if p {
				if s.mem != nil {
					s.mem.swap(old, v)
				}
				mb.kmLeaves[i].Payload = v
				s.hooks.read(g, mb.kmLeaves[i].Key, v)
				finished = append(finished, g)
			} else {
				if s.mem != nil {
					s.mem.sub(g.key, old)
				}
				g.deleted = true
				sizeDelta--
				dead = append(dead, mb.kmLeaves[i])
			}
		}
		if keepKM && len(dead) > 0 { // deleted, they leave the key-map the rest stay in
			s.ms.removeKM(seg, dead)
		}
		clear(dead)
		s.finished, s.deadSc = finished, dead
		// Keep exactly the net-present items. kmLeaves are aligned with
		// fKeys; recLeaves (recency order) locate their verdict by binary
		// search over the sorted fKeys.
		kept := mb.keepOnly(func(i int) bool { return s.fPresent[i] }, func(key K) bool {
			i := sort.Search(len(fKeys), func(j int) bool { return fKeys[j] >= key })
			return s.fPresent[i]
		})
		s.segs[tgt].pushFront(kept)
		completeAll(finished)
	}
	s.restore(k)

	w := 0
	for i, g := range pending {
		if found[i] == nil || g.deleted {
			pending[w] = g
			w++
		}
	}
	clear(fLeaves)
	return pending[:w], sizeDelta
}

// lookup returns, aligned with pending, the leaves of their keys that S[k]
// holds (nil where none). A segment with a search slice searches that
// alone. Segments sharing a key-map search it once, at the first of them
// without a slice: the pending keys are in none of the segments before it,
// and a leaf found there that a deeper segment holds, by its recency-map,
// stays on its group for that segment's pass, which searches nothing. When
// S[k] is the last segment of its key-map, every leaf found is its own, and
// no recency-map is walked.
func (s *slab[K, V]) lookup(k int, pending []*group[K, V]) []*segLeaf[K, V] {
	seg := s.segs[k]
	found := grow(s.foundSc, len(pending))
	s.foundSc = found
	if k > 0 && s.segs[k-1].km == seg.km && s.segs[k-1].sl == nil {
		for i, g := range pending {
			found[i], g.leaf = g.leaf, nil
		}
	} else {
		keys := s.keySc[:0]
		for _, g := range pending {
			keys = append(keys, g.key)
		}
		s.keySc = keys
		if seg.sl != nil {
			seg.sl.getInto(keys, found)
			return found
		}
		seg.km.BatchGetInto(keys, found)
	}
	if k+1 < len(s.segs) && s.segs[k+1].km == seg.km {
		for i, lf := range found {
			if lf != nil && !seg.rec.Owns(lf) {
				pending[i].leaf, found[i] = lf, nil
			}
		}
	}
	return found
}

// restore re-establishes the capacity invariant for segments S[0..k-1]:
// for each i from k down to 1, items move between the back of S[i-1] and
// the front of S[i] until the prefix S[0..i-1] is exactly full or S[i] is
// empty.
func (s *slab[K, V]) restore(k int) {
	k = min(k, len(s.segs)-1)
	prefix := 0 // items in S[0..i-1]
	for j := 0; j < k; j++ {
		prefix += s.segs[j].size()
	}
	for i := k; i >= 1; i-- {
		below := prefix - s.segs[i-1].size() // S[0..i-2]: this step leaves it alone
		want := capPrefix(i - 1)
		keepKM := s.segs[i-1].km == s.segs[i].km
		if prefix > want {
			mb := s.ms.popBack(s.segs[i-1], prefix-want, keepKM)
			s.segs[i].pushFront(mb)
		} else if prefix < want && s.segs[i].size() > 0 {
			x := want - prefix
			if sz := s.segs[i].size(); x > sz {
				x = sz
			}
			mb := s.ms.popFront(s.segs[i], x, keepKM)
			s.segs[i-1].pushBack(mb)
		}
		prefix = below
	}
}

// size returns the total number of items across the slab's segments.
func (s *slab[K, V]) size() int {
	total := 0
	for _, seg := range s.segs {
		total += seg.size()
	}
	return total
}

// finish resolves the groups that reached the end of the slab: misses
// and deletions complete (a deletion resolved when its item was found
// needs nothing more); insertions, charged to the byte accountant when
// there is one, enter at the front of the last segment by insertLast, up
// to maxSegs segments. It returns how many items it inserted and what the
// last allowed segment could not hold. The caller publishes the size and
// then completes pending.
func (s *slab[K, V]) finish(pending []*group[K, V], maxSegs int) (inserted int, overflow moveBatch[K, V]) {
	insKeys, insVals := s.insKeys[:0], s.insVals[:0]
	tailCalls := 0
	for _, g := range pending {
		if g.resolved {
			continue // deletion resolved when its item was found
		}
		tailCalls += len(g.calls)
		var zero V
		if p, v := g.resolve(false, zero, s.hooks); p {
			insKeys = append(insKeys, g.key) // pending is key-sorted
			insVals = append(insVals, v)
		}
	}
	s.obs.RecordLookup(obs.SrcTail, len(s.segs), tailCalls)
	s.insKeys, s.insVals = insKeys, insVals
	if len(insKeys) == 0 {
		return 0, moveBatch[K, V]{}
	}
	if s.mem != nil {
		for i := range insKeys {
			s.mem.add(insKeys[i], insVals[i])
		}
	}
	return len(insKeys), s.insertLast(insKeys, insVals, maxSegs)
}

// insertLast places brand-new items at the front of the last segment (the
// deepest one holding items; S[0] in an empty slab): Section 6.1's localized
// insertion — one segment edited, S[0..l-1] left exactly full — at the front,
// not the paper's back, so that eviction takes them after what was there
// (DESIGN.md "Eviction frontier"). A segment pushed over capacity pops its
// back into the next, created when there is none, up to maxSegs segments
// (0 = unbounded); the caller places what the last allowed one cannot hold.
func (s *slab[K, V]) insertLast(keysSorted []K, vals []V, maxSegs int) moveBatch[K, V] {
	if len(s.segs) == 0 {
		s.segs = append(s.segs, s.newSeg(0))
	}
	l := len(s.segs) - 1
	for l > 0 && s.segs[l].size() == 0 {
		l--
	}
	s.segs[l].pushFront(s.ms.newItems(keysSorted, vals))
	for ; ; l++ {
		ex := s.segs[l].overBy()
		if ex == 0 {
			return moveBatch[K, V]{}
		}
		if l == len(s.segs)-1 {
			if len(s.segs) == maxSegs {
				return s.ms.popBack(s.segs[l], ex, false)
			}
			s.segs = append(s.segs, s.newSeg(l+1))
		}
		s.segs[l+1].pushFront(s.ms.popBack(s.segs[l], ex, s.segs[l].km == s.segs[l+1].km))
	}
}

// newSeg makes the slab's segment S[k]: in M1 on S[0]'s key-map, and with
// a search slice below S[deepKM].
func (s *slab[K, V]) newSeg(k int) *segment[K, V] {
	seg := newSegment[K, V](k, s.cnt, s.pool)
	if s.deep {
		if k > 0 {
			seg.km = s.segs[0].km
		}
		if k < deepKM {
			seg.sl = &keySlice[K, V]{cnt: s.cnt}
		}
	}
	return seg
}

// evictColdest pops up to n of the least-recent items from the deepest
// segment — the working-set hierarchy's cold end, the eviction frontier
// — releasing each through the accountant (counter + onEvict hook). It
// returns how many items were evicted. Only called from the engine's
// single-threaded batch run, at a batch boundary.
func (s *slab[K, V]) evictColdest(n int) int {
	l := len(s.segs) - 1
	if l < 0 || n <= 0 {
		return 0
	}
	if sz := s.segs[l].size(); n > sz {
		n = sz
	}
	mb := s.ms.popBack(s.segs[l], n, false)
	for _, lf := range mb.kmLeaves {
		s.mem.evict(lf.Key, lf.Payload)
	}
	s.trimEmpty()
	return mb.len()
}

// recomputeBytes returns the exact accounted byte total of every
// resident item (M1's test hook; quiescence required).
func (s *slab[K, V]) recomputeBytes() int64 {
	var total int64
	for km := range keyMaps(s.segs) {
		for _, lf := range km.Flatten() {
			total += s.mem.itemBytes(lf.Key, lf.Payload)
		}
	}
	return total
}

// trimEmpty drops empty trailing segments.
func (s *slab[K, V]) trimEmpty() {
	for len(s.segs) > 0 && s.segs[len(s.segs)-1].size() == 0 {
		s.segs = s.segs[:len(s.segs)-1]
	}
}

// checkInvariants validates every segment plus the full-except-last
// capacity invariant (test hook; quiescence required). In M1 every segment
// is on S[0]'s key-map, and each of S[0..deepKM-1] has a strictly
// key-sorted search slice holding exactly its recency-map's leaves.
func (s *slab[K, V]) checkInvariants(exact bool) error {
	if err := checkSegs(s.segs); err != nil {
		return err
	}
	for i, seg := range s.segs {
		if s.deep && seg.km != s.segs[0].km {
			return fmt.Errorf("segment %d has a key-map of its own", i)
		}
		if (s.deep && i < deepKM) != (seg.sl != nil) {
			return fmt.Errorf("segment %d: search slice %v, want %v", i, seg.sl != nil, s.deep && i < deepKM)
		}
		if seg.sl != nil {
			lv := seg.sl.leaves
			if len(lv) != seg.size() {
				return fmt.Errorf("segment %d: search slice holds %d leaves, recency-map %d", i, len(lv), seg.size())
			}
			for j, lf := range lv {
				if j > 0 && lv[j-1].Key >= lf.Key {
					return fmt.Errorf("segment %d: search slice out of order at %d (%v, %v)", i, j, lv[j-1].Key, lf.Key)
				}
				if !seg.rec.Owns(lf) {
					return fmt.Errorf("segment %d: search slice holds %v, which its recency-map does not", i, lf.Key)
				}
			}
		}
		if exact && i < len(s.segs)-1 && seg.size() != seg.cap {
			return fmt.Errorf("non-terminal segment %d has size %d, capacity %d", i, seg.size(), seg.cap)
		}
	}
	return nil
}
