package core

import (
	"cmp"

	"repro/internal/twothree"
)

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
// lives in exactly one key-map, so a range is a bounded merge of
// per-key-map RangeInto collections over the live trees (keyMaps). M1's
// segments all share one key-map, so an M1 range collects one run.

// rangeScratch is the per-engine scratch behind serveRanges: the
// per-key-map leaf collection and the concatenated per-key-map sorted
// runs, all reused across batches so steady-state range serving allocates
// nothing beyond growing the caller's Out buffers.
type rangeScratch[K cmp.Ordered, V any] struct {
	leaves []*segLeaf[K, V]
	kvs    []KV[K, V]
	runs   [][]KV[K, V] // per-key-map windows of kvs
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
// batch, against the slab the batch just finished mutating, and asks the
// Dead hook once per call which keys read as expired at that point.
func (m *M1[K, V]) serveRanges(calls []*call[K, V]) {
	sc := &m.rangeSc
	pairs := 0
	for _, c := range calls {
		pairs += serveOneRange(m.slab.segs, sc, c, m.slab.hooks.dead())
		c.complete()
	}
	m.cfg.Obs.RecordRange(len(calls), pairs)
	// The runs hold key/value copies; don't pin them past the batch.
	clear(sc.kvs[:cap(sc.kvs)])
	clear(sc.runs)
}

// serveOneRange fills one call's RangeReq.Out with the first Limit live
// pairs of [lo, hi) (lo exclusive under XLo; dead, if non-nil, names the
// expired keys) and sets the call's Result.OK to the truncation verdict.
// It returns the number of pairs emitted.
//
// Every key-map contributes up to Limit live pairs, which is what makes
// the merge exact: each of the globally smallest Limit live keys has
// fewer than Limit live predecessors, so in particular fewer than Limit
// within its own key-map — it is always collected. A key-map that filled
// its share may hold more, so the verdict is then "more" and the merged
// page is full; a false positive costs the caller one empty follow-up
// page, never a missed item.
func serveOneRange[K cmp.Ordered, V any](segs []*segment[K, V], sc *rangeScratch[K, V], c *call[K, V], dead func(K) bool) int {
	req := c.op.Range
	c.res = Result[V]{}
	if req == nil {
		return 0 // malformed op: empty result, not a panic
	}
	lo, hi, limit := c.op.Key, req.Hi, req.Limit
	if hi <= lo {
		return 0
	}
	sc.kvs, sc.runs = sc.kvs[:0], sc.runs[:0]
	anyFull := false
	for km := range keyMaps(segs) {
		start := len(sc.kvs)
		full := sc.collectLive(km, lo, hi, req.XLo, limit, dead)
		anyFull = anyFull || full
		// A later append may move kvs; the window keeps the old array.
		sc.runs = append(sc.runs, sc.kvs[start:])
	}
	clear(sc.leaves[:cap(sc.leaves)]) // don't pin leaves past the batch
	n0 := len(req.Out)
	var more bool
	req.Out, more = MergePage(sc.runs, limit, req.Out)
	c.res = Result[V]{OK: more || anyFull}
	return len(req.Out) - n0
}

// collectLive appends to sc.kvs up to limit (<= 0: all) pairs of km in
// [lo, hi), skipping lo itself under xlo and every key dead reports, and
// reports whether it stopped at limit. Skipped keys take RangeInto
// slots, so a full collection that fell short reads on from its last key,
// exclusive.
func (sc *rangeScratch[K, V]) collectLive(km *twothree.Tree[K, V], lo, hi K, xlo bool, limit int, dead func(K) bool) (full bool) {
	start := len(sc.kvs)
	for {
		bound := 0
		if limit > 0 {
			bound = limit - (len(sc.kvs) - start)
			if xlo {
				bound++ // lo itself may take a slot
			}
		}
		sc.leaves = km.RangeInto(lo, hi, bound, sc.leaves[:0])
		for _, lf := range sc.leaves {
			if limit > 0 && len(sc.kvs)-start == limit {
				return true
			}
			if (xlo && lf.Key == lo) || (dead != nil && dead(lf.Key)) {
				continue
			}
			sc.kvs = append(sc.kvs, KV[K, V]{Key: lf.Key, Val: lf.Payload})
		}
		if bound == 0 || len(sc.leaves) < bound {
			return false // nothing further in range
		}
		if len(sc.kvs)-start == limit {
			return true
		}
		lo, xlo = sc.leaves[len(sc.leaves)-1].Key, true
	}
}

// MergePage appends to dst the first limit pairs (limit <= 0: all) of the
// union of the key-sorted runs, in ascending key order, and reports
// whether pairs remain past the page. Keys must be distinct across runs —
// segments of one engine, or shards of one map. It is the one k-way merge
// of ordered reads: engine range pages, Items snapshots and the sharded
// map's pages and snapshots. The runs are consumed (each is resliced past
// what the page took). O(page · len(runs)).
func MergePage[K cmp.Ordered, V any](runs [][]KV[K, V], limit int, dst []KV[K, V]) (out []KV[K, V], more bool) {
	for n := 0; limit <= 0 || n < limit; n++ {
		best := -1
		for i, r := range runs {
			if len(r) > 0 && (best < 0 || r[0].Key < runs[best][0].Key) {
				best = i
			}
		}
		if best < 0 {
			return dst, false
		}
		dst = append(dst, runs[best][0])
		runs[best] = runs[best][1:]
	}
	for _, r := range runs {
		if len(r) > 0 {
			return dst, true
		}
	}
	return dst, false
}
