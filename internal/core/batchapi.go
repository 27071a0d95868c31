package core

import (
	"cmp"
	"sync"

	"repro/internal/locks"
)

// batchPool recycles the []*call slices used by the batch API, so a
// steady stream of Apply batches (the server's pipelined connections)
// reuses its submission frames.
type batchPool[K cmp.Ordered, V any] struct {
	p sync.Pool
}

func (bp *batchPool[K, V]) get(n int) []*call[K, V] {
	if v := bp.p.Get(); v != nil {
		s := *v.(*[]*call[K, V])
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]*call[K, V], n)
}

func (bp *batchPool[K, V]) put(s []*call[K, V]) {
	clear(s)
	bp.p.Put(&s)
}

// Pending is a submitted, not-yet-collected batch: the handle returned by
// ApplyAsync. Collect must be called exactly once; it drives the engine
// (first collector activates it), waits for every result, and recycles
// the batch's call frames. The split lets a caller fan one input batch
// out to several engines without spawning a goroutine per engine — the
// sharded front-end's Apply is built on it.
type Pending[K cmp.Ordered, V any] struct {
	calls []*call[K, V]
	cp    *callPool[K, V]
	bp    *batchPool[K, V]
	act   *locks.Activation
	pend  *locks.WaitCounter
}

// Collect waits for all results of the batch, storing them into dst,
// which must have length equal to the submitted ops. Exactly-once.
func (p Pending[K, V]) Collect(dst []Result[V]) {
	if p.act == nil {
		return // zero Pending: empty batch
	}
	p.act.Activate()
	for i, c := range p.calls {
		dst[i] = c.wait()
		p.cp.put(c)
	}
	p.bp.put(p.calls)
	p.pend.Done()
}

// CollectScattered is Collect delivering into per-submitter result slices:
// dsts must mirror the batches passed to ApplyAsyncMulti (same count, same
// lengths). Results land directly in each submitter's slice — no combined
// buffer, no re-copy — which is what lets a cross-connection group commit
// hand every connection its own results from one engine batch. Exactly-once.
func (p Pending[K, V]) CollectScattered(dsts [][]Result[V]) {
	if p.act == nil {
		return // zero Pending: empty batch
	}
	p.act.Activate()
	i := 0
	for _, dst := range dsts {
		for j := range dst {
			c := p.calls[i]
			dst[j] = c.wait()
			p.cp.put(c)
			i++
		}
	}
	p.bp.put(p.calls)
	p.pend.Done()
}

// applyAsync is the shared ApplyAsync body.
func applyAsync[K cmp.Ordered, V any](
	ops []Op[K, V], closed bool,
	pend *locks.WaitCounter, cp *callPool[K, V], bp *batchPool[K, V],
	addAll func([]*call[K, V]), act *locks.Activation,
) Pending[K, V] {
	if closed {
		panic("core: map used after Close")
	}
	if len(ops) == 0 {
		return Pending[K, V]{}
	}
	pend.Add()
	calls := bp.get(len(ops))
	for i, op := range ops {
		calls[i] = cp.get(op)
	}
	addAll(calls)
	return Pending[K, V]{calls: calls, cp: cp, bp: bp, act: act, pend: pend}
}

// applyAsyncMulti is the shared ApplyAsyncMulti body: it submits the
// concatenation of the batches as one batch without materializing the
// concatenation, so a group commit over many connections costs one call
// frame per op and nothing per connection.
func applyAsyncMulti[K cmp.Ordered, V any](
	batches [][]Op[K, V], closed bool,
	pend *locks.WaitCounter, cp *callPool[K, V], bp *batchPool[K, V],
	addAll func([]*call[K, V]), act *locks.Activation,
) Pending[K, V] {
	if closed {
		panic("core: map used after Close")
	}
	total := 0
	for _, ops := range batches {
		total += len(ops)
	}
	if total == 0 {
		return Pending[K, V]{}
	}
	pend.Add()
	calls := bp.get(total)
	i := 0
	for _, ops := range batches {
		for _, op := range ops {
			calls[i] = cp.get(op)
			i++
		}
	}
	addAll(calls)
	return Pending[K, V]{calls: calls, cp: cp, bp: bp, act: act, pend: pend}
}

// collectInto sizes dst for the pending batch and collects into it.
func collectInto[K cmp.Ordered, V any](p Pending[K, V], n int, dst []Result[V]) []Result[V] {
	dst = grow(dst, n)
	p.Collect(dst)
	return dst
}

// ApplyAsync submits a whole batch of operations at once without waiting:
// the returned Pending's Collect delivers the results in input order.
// Semantically identical to running the operations from len(ops)
// concurrent goroutines — they may be combined into the same cut batch
// and grouped per key in input order — but costs one blocking client
// instead of many, and no goroutine at all until Collect.
func (m *M1[K, V]) ApplyAsync(ops []Op[K, V]) Pending[K, V] {
	return applyAsync(ops, m.closed.Load(), &m.pending, &m.calls, &m.batch, m.pb.AddAll, m.act)
}

// ApplyInto is Apply collecting into dst (grown as needed and returned),
// so a caller issuing batches in a loop reuses one result buffer.
func (m *M1[K, V]) ApplyInto(ops []Op[K, V], dst []Result[V]) []Result[V] {
	return collectInto(m.ApplyAsync(ops), len(ops), dst)
}

// Apply submits a whole batch of operations at once and waits for all of
// their results, returned in input order.
func (m *M1[K, V]) Apply(ops []Op[K, V]) []Result[V] {
	return m.ApplyInto(ops, nil)
}

// ApplyAsyncMulti submits the concatenation of several op slices as one
// batch without waiting and without copying them into one slice. Paired
// with Pending.CollectScattered it is the engine half of cross-connection
// group commit: many submitters' ops enter one implicit batch, and each
// submitter's results come back in its own slice.
func (m *M1[K, V]) ApplyAsyncMulti(batches [][]Op[K, V]) Pending[K, V] {
	return applyAsyncMulti(batches, m.closed.Load(), &m.pending, &m.calls, &m.batch, m.pb.AddAll, m.act)
}

// Range reads the first limit pairs with lo <= key < hi in ascending key
// order, appending them to dst (grown as needed and returned); limit <= 0
// means no bound. The second result reports truncation: true when more
// matching items may remain past the returned page. It is an ordinary
// batched operation — one OpRange submitted through ApplyAsync — so it
// needs no quiescence and runs concurrently with any other operations,
// linearizing at the end of its cut batch.
func (m *M1[K, V]) Range(lo, hi K, limit int, dst []KV[K, V]) ([]KV[K, V], bool) {
	req := RangeReq[K, V]{Hi: hi, Limit: limit, Out: dst}
	ops := [1]Op[K, V]{{Kind: OpRange, Key: lo, Range: &req}}
	var res [1]Result[V]
	m.ApplyAsync(ops[:]).Collect(res[:])
	return req.Out, res[0].OK
}

// rejectRanges panics, in the submitter's goroutine, when ops carries an
// OpRange: M2 is the paper's search/insert/delete structure and serves no
// range reads (M1 does).
func rejectRanges[K cmp.Ordered, V any](ops []Op[K, V]) {
	for i := range ops {
		if ops[i].Kind == OpRange {
			panic("core: M2 does not serve OpRange")
		}
	}
}

// ApplyAsync submits a batch without waiting. See M1.ApplyAsync. An
// OpRange in ops panics here, before anything is submitted.
func (m *M2[K, V]) ApplyAsync(ops []Op[K, V]) Pending[K, V] {
	rejectRanges(ops)
	return applyAsync(ops, m.closed.Load(), &m.pending, &m.calls, &m.batch, m.pb.AddAll, m.act)
}

// ApplyAsyncMulti submits several op slices as one batch. See
// M1.ApplyAsyncMulti; like ApplyAsync it panics on an OpRange.
func (m *M2[K, V]) ApplyAsyncMulti(batches [][]Op[K, V]) Pending[K, V] {
	for _, ops := range batches {
		rejectRanges(ops)
	}
	return applyAsyncMulti(batches, m.closed.Load(), &m.pending, &m.calls, &m.batch, m.pb.AddAll, m.act)
}

// ApplyInto is Apply collecting into dst. See M1.ApplyInto.
func (m *M2[K, V]) ApplyInto(ops []Op[K, V], dst []Result[V]) []Result[V] {
	return collectInto(m.ApplyAsync(ops), len(ops), dst)
}

// Apply submits a whole batch of operations at once and waits for all of
// their results, returned in input order. See M1.Apply.
func (m *M2[K, V]) Apply(ops []Op[K, V]) []Result[V] {
	return m.ApplyInto(ops, nil)
}
