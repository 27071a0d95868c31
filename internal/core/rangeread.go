package core

import "cmp"

// Batched range reads (M1 only; an OpRange submitted to an M2 panics in
// the submitter, see M2.ApplyInto). OpRange operations ride the same cut
// batches as point operations — cut by the feed from Do's parallel
// buffer, or by ApplyInto from the caller's batch — but they never group
// with them: processBatch splits them out of the batch before key
// grouping, runs the point operations as before, and then serves every
// range of the batch after the batch's own effects have been applied, so
// a range linearizes at the end of its cut batch.
//
// The engine run owns the whole slab, and at the batch boundary every item
// lives in exactly one key-map, so a range is a bounded k-way merge of
// per-segment RangeInto collections over the live trees.

// rangeScratch is the per-engine scratch behind serveRanges: the
// per-segment leaf collection, the concatenated per-segment sorted runs,
// their boundaries and the merge cursors, all reused across batches so
// steady-state range serving allocates nothing beyond growing the
// caller's Out buffers.
type rangeScratch[K cmp.Ordered, V any] struct {
	leaves []*segLeaf[K, V]
	kvs    []KV[K, V]
	offs   []int
	cur    []int
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

// serveRanges executes every range call of the batch against the live
// segments and completes the calls. It runs at the very end of the engine
// batch, against the slab the batch just finished mutating.
func (m *M1[K, V]) serveRanges(calls []*call[K, V]) {
	sc := &m.rangeSc
	pairs := 0
	for _, c := range calls {
		pairs += serveOneRange(m.slab.segs, sc, c)
		c.complete()
	}
	m.cfg.Obs.RecordRange(len(calls), pairs)
	// The runs hold key/value copies; don't pin them past the batch.
	clear(sc.kvs)
	sc.kvs = sc.kvs[:0]
}

// serveOneRange fills one call's RangeReq.Out with the first Limit pairs
// of [lo, hi) (lo exclusive under XLo) and sets the call's Result.OK to
// the truncation verdict. It returns the number of pairs emitted.
func serveOneRange[K cmp.Ordered, V any](segs []*segment[K, V], sc *rangeScratch[K, V], c *call[K, V]) int {
	req := c.op.Range
	c.res = Result[V]{}
	if req == nil {
		return 0 // malformed op: empty result, not a panic
	}
	lo, hi, limit := c.op.Key, req.Hi, req.Limit
	if hi <= lo {
		return 0
	}
	// Collect up to bound in-range pairs from every segment. Taking the
	// per-segment bound (rather than sharing one running limit) is what
	// makes the merge exact: each of the globally smallest `limit` keys
	// has fewer than `limit` predecessors, so in particular fewer than
	// `limit` within its own segment — it is always collected. Under XLo
	// one collected pair may be lo itself and is skipped below, hence the
	// +1.
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
			// The segment may hold further in-range items beyond its
			// collection: a conservative "more" verdict (a false positive
			// costs the caller one empty follow-up page, never a missed
			// item).
			anyFull = true
		}
	}
	sc.offs = append(sc.offs, len(sc.kvs))
	sc.leaves = sc.leaves[:cap(sc.leaves)]
	clear(sc.leaves) // don't pin leaves past the batch
	sc.leaves = sc.leaves[:0]

	// Bounded k-way merge; keys are globally distinct across segments at a
	// batch boundary, so a plain min-pick suffices.
	out := req.Out
	n0 := len(out)
	truncated := false
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
		if best < 0 {
			break
		}
		kv := sc.kvs[sc.cur[best]]
		sc.cur[best]++
		if req.XLo && kv.Key == lo {
			continue
		}
		if limit > 0 && len(out)-n0 >= limit {
			truncated = true
			break
		}
		out = append(out, kv)
	}
	req.Out = out
	c.res = Result[V]{OK: truncated || anyFull}
	return len(out) - n0
}
