package core

import (
	"cmp"

	"repro/internal/obs"
)

// Batched range reads. OpRange operations travel through the same parallel
// buffer, feed buffer and cut batches as point operations, but they never
// group with them: processBatch/interfaceRun split them out of the batch
// before key grouping, run the point operations as before, and then serve
// every range of the batch after the batch's own effects have been
// applied, so a range linearizes at the end of its cut batch.
//
// M1 serves ranges directly against its segment trees (its engine run owns
// the whole slab, and at the batch boundary every item lives in exactly
// one key-map), as a bounded k-way merge of per-segment RangeInto
// collections.
//
// M2 cannot read its final slab trees — concurrent segment runs mutate
// them — and since PR 6 it no longer waits for them to rest (the retired
// drainFinalSlab approach, whose scan-tail p99 scaled with everything in
// flight). Instead M2.serveRanges composes a batch-boundary-consistent
// view out of three sources:
//
//   - the live first slab trees, which the interface owns outright
//     (S[0..m-2] are interface-private; S[m-1] and the filter are guarded
//     by the nlock0+FL[0] pair the reader takes);
//   - each final slab segment's published epoch snapshot (snapshot.go) —
//     a copied view the segments refresh at the end of every run, with
//     every access (publish and read) serialized by the FL[0] the reader
//     holds;
//   - the filter overlay: the net state of every key with in-flight final
//     slab operations, computed by a read-only replay of its filter entry
//     (collectOverlay). Overlay verdicts mask whatever the snapshots say
//     about those keys.
//
// The filter is what makes the overlay exact: every unfinished operation
// that entered the final slab has exactly one filter entry (operations on
// an in-flight key are absorbed into the existing entry, so keys are
// distinct), and an entry carries everything needed to reconstruct the
// key's net state — the replayed state when a prior resolution recorded
// one (known), otherwise the snapshot base the travelling group will
// itself observe, folded through the entry's pending groups exactly as a
// future step 4c/terminal replay will fold them. Snapshots are stale by at
// most the in-flight work (a run removes items at 4a and publishes their
// fate only at its end), but every such limbo item is in the filter, so
// the overlay rewrites precisely the keys whose snapshot entries could be
// stale — the composition equals the net state of all batches up to the
// boundary.

// rangeScratch is the per-engine scratch behind serveRangeCalls: the
// per-segment leaf collection, the concatenated per-source sorted runs,
// their boundaries, the merge cursors, and the overlay buffer, all reused
// across batches so steady-state range serving allocates nothing beyond
// growing the caller's Out buffers.
type rangeScratch[K cmp.Ordered, V any] struct {
	leaves  []*segLeaf[K, V]
	kvs     []KV[K, V]
	offs    []int
	cur     []int
	overlay []ovKV[K, V]
}

// splitRangeCalls partitions a cut batch in place: point calls are
// compacted to the front of batch (preserving arrival order, which the
// per-key grouping relies on) and range calls are appended to ranges.
func splitRangeCalls[K cmp.Ordered, V any](batch, ranges []*call[K, V]) (points, outRanges []*call[K, V]) {
	w := 0
	for _, c := range batch {
		if c.op.Kind == OpRange {
			ranges = append(ranges, c)
		} else {
			batch[w] = c
			w++
		}
	}
	return batch[:w], ranges
}

// serveRangeCalls executes every range call against the given sources and
// completes the calls: live segments plus (M2 only) published segment
// snapshots and a per-call filter overlay collected by ov. Caller must
// guarantee the sources are stable for the duration (M1: inside the
// engine run; M2: under nlock0+FL[0], see M2.serveRanges).
func serveRangeCalls[K cmp.Ordered, V any](segs []*segment[K, V], snaps []*segSnap[K, V], ov func(lo, hi K) []ovKV[K, V], sc *rangeScratch[K, V], calls []*call[K, V], eo *obs.EngineObs) {
	var nLive, nSnap, nOv int
	for _, c := range calls {
		var overlay []ovKV[K, V]
		if ov != nil && c.op.Range != nil && c.op.Key < c.op.Range.Hi {
			overlay = ov(c.op.Key, c.op.Range.Hi)
		}
		l, s, o := serveOneRange(segs, snaps, overlay, sc, c)
		nLive += l
		nSnap += s
		nOv += o
		c.complete()
	}
	eo.RecordRange(len(calls), nLive, nSnap, nOv)
	// The runs and the overlay hold key/value copies; don't pin them past
	// the batch.
	clear(sc.kvs)
	sc.kvs = sc.kvs[:0]
	clear(sc.overlay)
	sc.overlay = sc.overlay[:0]
}

// serveOneRange fills one call's RangeReq.Out with the first Limit pairs
// of [lo, hi) (lo exclusive under XLo) and sets the call's Result.OK to
// the truncation verdict. It reports the emitted pairs per source class
// (live segment trees, snapshots, overlay) for depth telemetry.
func serveOneRange[K cmp.Ordered, V any](segs []*segment[K, V], snaps []*segSnap[K, V], overlay []ovKV[K, V], sc *rangeScratch[K, V], c *call[K, V]) (nLive, nSnap, nOv int) {
	req := c.op.Range
	c.res = Result[V]{}
	if req == nil {
		return // malformed op: empty result, not a panic
	}
	lo, hi, limit := c.op.Key, req.Hi, req.Limit
	if hi <= lo {
		return
	}
	// Collect up to bound in-range pairs from every source. Taking the
	// per-source bound (rather than sharing one running limit) is what
	// makes the merge exact: each of the globally smallest `limit` keys
	// has fewer than `limit` predecessors, so in particular fewer than
	// `limit` within its own source — it is always collected. Under XLo
	// one collected pair may be lo itself and is skipped below, hence the
	// +1. The overlay is exempt from the bound (collectOverlay gathers the
	// whole window): a bounded overlay could run out before a stale
	// snapshot pair it must mask.
	bound := limit
	if limit > 0 && req.XLo {
		bound = limit + 1
	}
	sc.kvs = sc.kvs[:0]
	sc.offs = sc.offs[:0]
	sc.cur = sc.cur[:0]
	anyFull := false
	for _, seg := range segs {
		start := len(sc.kvs)
		sc.offs = append(sc.offs, start)
		sc.cur = append(sc.cur, start)
		sc.leaves = seg.km.RangeInto(lo, hi, bound, sc.leaves[:0])
		for _, lf := range sc.leaves {
			sc.kvs = append(sc.kvs, KV[K, V]{Key: lf.Key, Val: lf.Payload})
		}
		if bound > 0 && len(sc.kvs)-start == bound {
			// The source may hold further in-range items beyond its
			// collection: a conservative "more" verdict (a false positive
			// costs the caller one empty follow-up page, never a missed
			// item).
			anyFull = true
		}
	}
	for _, s := range snaps {
		start := len(sc.kvs)
		sc.offs = append(sc.offs, start)
		sc.cur = append(sc.cur, start)
		sc.kvs = s.rangeInto(lo, hi, bound, sc.kvs)
		if bound > 0 && len(sc.kvs)-start == bound {
			anyFull = true
		}
	}
	sc.offs = append(sc.offs, len(sc.kvs))
	sc.leaves = sc.leaves[:cap(sc.leaves)]
	clear(sc.leaves) // don't pin leaves past the batch
	sc.leaves = sc.leaves[:0]

	// Bounded k-way merge. Keys are globally distinct across live
	// segments at a batch boundary; a snapshot run may disagree with
	// another source only on keys the overlay covers, and the overlay
	// wins: its verdict is emitted (or, for a net-absent key, suppressed)
	// while every tied source cursor advances past the key.
	out := req.Out
	n0 := len(out)
	truncated := false
	ov := 0
	for {
		best := -1
		for i := range sc.cur {
			if sc.cur[i] == sc.offs[i+1] {
				continue
			}
			if best < 0 || sc.kvs[sc.cur[i]].Key < sc.kvs[sc.cur[best]].Key {
				best = i
			}
		}
		haveSrc := best >= 0
		haveOv := ov < len(overlay)
		if !haveSrc && !haveOv {
			break
		}
		var k K
		var v V
		emit := true
		src := -1 // emitted from the overlay unless a source cursor wins
		if haveOv && (!haveSrc || overlay[ov].key <= sc.kvs[sc.cur[best]].Key) {
			e := overlay[ov]
			ov++
			k, v, emit = e.key, e.val, e.present
			for i := range sc.cur {
				if sc.cur[i] < sc.offs[i+1] && sc.kvs[sc.cur[i]].Key == k {
					sc.cur[i]++
				}
			}
		} else {
			k, v = sc.kvs[sc.cur[best]].Key, sc.kvs[sc.cur[best]].Val
			sc.cur[best]++
			src = best
		}
		if req.XLo && k == lo {
			continue
		}
		if !emit {
			continue
		}
		if limit > 0 && len(out)-n0 >= limit {
			truncated = true
			break
		}
		out = append(out, KV[K, V]{Key: k, Val: v})
		switch {
		case src < 0:
			nOv++
		case src < len(segs):
			nLive++
		default:
			nSnap++
		}
	}
	req.Out = out
	c.res = Result[V]{OK: truncated || anyFull}
	return nLive, nSnap, nOv
}

// serveRanges is the M1 half: ranges run at the very end of the engine
// batch, against the slab the batch just finished mutating.
func (m *M1[K, V]) serveRanges(calls []*call[K, V]) {
	serveRangeCalls(m.slab.segs, nil, nil, &m.rangeSc, calls, m.cfg.Obs)
}

// serveRanges is the M2 half: the interface (running here) composes the
// consistent view described in the package comment above — live first
// slab trees under nlock0+FL[0], published final slab snapshots, filter
// overlay — and serves every range against it while the final slab keeps
// working. The only waiting is the bounded lock handoff: at most one
// in-flight S[m] run (which holds FL[0] for its whole run) plus the
// descending holders ahead in the front-lock queue, never the length of
// the final slab's buffered pipeline.
func (m *M2[K, V]) serveRanges(calls []*call[K, V]) {
	m.rangeServes.Add(1)
	m.nlock0.Acquire(nlKeyLeft)
	m.fl0.Acquire(flKeyInterface)

	segs := append(m.rangeSegSc[:0], m.first.segs...)
	snaps := m.snapSc[:0]
	busy := m.flt.size.Load() > 0
	m.segsMu.RLock()
	for _, f := range m.fsegs {
		if s := f.snap.Load(); s != nil {
			if len(s.deltas) > snapMaxDeltas {
				// Publishers grow the chain freely between reads; the
				// reader is the party that needs bounded per-key depth, so
				// it compacts at load — under the same FL[0] every
				// publisher takes (snapshot.go).
				s = s.compacted()
				f.snap.Store(s)
			}
			snaps = append(snaps, s)
		}
		if f.bufA.Load() > 0 {
			busy = true
		}
	}
	m.segsMu.RUnlock()
	if busy {
		m.rangeBusy.Add(1)
	}

	serveRangeCalls(segs, snaps, func(lo, hi K) []ovKV[K, V] {
		m.rangeSc.overlay = m.collectOverlay(lo, hi, snaps, m.rangeSc.overlay[:0])
		return m.rangeSc.overlay
	}, &m.rangeSc, calls, m.cfg.Obs)

	m.fl0.Release()
	m.nlock0.Release()

	// Clear the retained source lists: segments may be removed and
	// snapshots superseded between scans, and a stale entry would pin
	// their trees (and every value they hold) until the next range batch.
	clear(segs)
	clear(snaps)
	m.rangeSegSc = segs[:0]
	m.snapSc = snaps[:0]
}

// collectOverlay appends the filter's net verdict for every in-flight key
// in [lo, hi), in ascending key order. For each entry the replay base is
// the recorded state when a prior resolution fixed one (known — the item
// is then in no tree), otherwise the composed snapshot view of the key
// (the state the travelling group will itself observe); the entry's
// pending groups fold over that base read-only (group.peek). The
// collection is deliberately unbounded — the filter holds at most ~2p²
// entries, and a truncated overlay could fail to mask a stale snapshot
// pair. Caller holds FL[0], which owns the filter.
func (m *M2[K, V]) collectOverlay(lo, hi K, snaps []*segSnap[K, V], out []ovKV[K, V]) []ovKV[K, V] {
	if m.flt.tree.Len() == 0 {
		return out
	}
	m.ovLeafSc = m.flt.tree.RangeInto(lo, hi, 0, m.ovLeafSc[:0])
	for _, lf := range m.ovLeafSc {
		e := lf.Payload
		var (
			p bool
			v V
		)
		if e.known {
			p, v = e.present, e.val
		} else {
			for _, s := range snaps {
				if sv, ok := s.get(lf.Key); ok {
					p, v = true, sv
					break
				}
			}
		}
		for _, g := range e.pending {
			p, v = g.peek(p, v)
		}
		out = append(out, ovKV[K, V]{key: lf.Key, val: v, present: p})
	}
	clear(m.ovLeafSc)
	m.ovLeafSc = m.ovLeafSc[:0]
	return out
}
