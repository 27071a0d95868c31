package core

// ApplyInto applies a whole batch of operations and writes their results,
// in input order, into dst (grown as needed and returned), so a caller
// issuing batches in a loop reuses one result buffer.
//
// The batch is the caller's: it runs on the calling goroutine under the
// engine mutex, cut by the feed buffer's own rule — numBunches·P² ops
// per cut batch, re-evaluated as the map grows — so a lone submitter's
// batch is processed exactly as the parallel buffer and feed would have
// cut it, without a pooled call frame, a channel or a wait per op. The
// frames a cut needs are the engine's own and are never shared with the
// point-op path (Do). Semantically the batch is the ops run in input
// order: they may combine into group operations, and per key they
// resolve in input order. Ranges linearize at the end of their cut.
func (m *M1[K, V]) ApplyInto(ops []Op[K, V], dst []Result[V]) []Result[V] {
	m.enter()
	defer m.pending.Done()
	dst = grow(dst, len(ops))
	m.eng.Lock()
	defer m.eng.Unlock()
	bunch := m.cfg.P * m.cfg.P
	for lo := 0; lo < len(ops); {
		hi := min(len(ops), lo+m.numBunches(m.size)*bunch)
		cut := grow(m.cutSc, hi-lo)
		m.cutSc = cut
		batch := m.batchSc[:0]
		for i := range cut {
			cut[i].op = ops[lo+i]
			batch = append(batch, &cut[i])
		}
		m.batchSc = batch
		m.runCut(batch)
		for i := range cut {
			dst[lo+i] = cut[i].res
		}
		clear(cut) // don't pin the caller's keys and values
		lo = hi
	}
	return dst
}

// Apply is ApplyInto with a fresh result slice.
func (m *M1[K, V]) Apply(ops []Op[K, V]) []Result[V] {
	return m.ApplyInto(ops, nil)
}

// Range reads the first limit pairs with lo <= key < hi in ascending key
// order, appending them to dst (grown as needed and returned); limit <= 0
// means no bound. The second result reports truncation: true when more
// matching items may remain past the returned page. It is an ordinary
// batched operation — one OpRange submitted through Do — so it needs no
// quiescence and runs concurrently with any other operations,
// linearizing at the end of its cut batch.
func (m *M1[K, V]) Range(lo, hi K, limit int, dst []KV[K, V]) ([]KV[K, V], bool) {
	req := RangeReq[K, V]{Hi: hi, Limit: limit, Out: dst}
	r := m.Do(Op[K, V]{Kind: OpRange, Key: lo, Range: &req})
	return req.Out, r.OK
}

// ApplyInto submits a batch through M2's parallel buffer and waits for
// every result, written into dst (grown as needed and returned) in input
// order. An OpRange in ops panics here, before anything is submitted: M2
// is the paper's search/insert/delete structure and serves no range reads
// (M1 does).
func (m *M2[K, V]) ApplyInto(ops []Op[K, V], dst []Result[V]) []Result[V] {
	for i := range ops {
		if ops[i].Kind == OpRange {
			panic("core: M2 does not serve OpRange")
		}
	}
	m.enter()
	defer m.pending.Done()
	dst = grow(dst, len(ops))
	if len(ops) == 0 {
		return dst
	}
	calls := make([]*call[K, V], len(ops))
	for i, op := range ops {
		calls[i] = m.calls.get(op)
	}
	m.pb.AddAll(calls)
	m.act.Activate()
	for i, c := range calls {
		dst[i] = c.wait()
		m.calls.put(c)
	}
	return dst
}

// Apply is ApplyInto with a fresh result slice.
func (m *M2[K, V]) Apply(ops []Op[K, V]) []Result[V] {
	return m.ApplyInto(ops, nil)
}
