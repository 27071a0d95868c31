package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/locks"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/twothree"
)

// Dedicated-lock key assignments. Neighbour locks have two keys: the left
// user (the interface for the S[m-1]/S[m] lock, otherwise S[k-1]) and the
// right user (S[k]). Front locks have three: the descending holder of
// FL[j+1], the owning segment S[m+j], and (for FL[0]) the interface.
const (
	nlKeyLeft  = 0
	nlKeyRight = 1

	flKeyDescend   = 0
	flKeyOwner     = 1
	flKeyInterface = 2
)

// fentry is one filter entry (Section 7.1): the in-flight item's pending
// group-operations in arrival order, the groups already replayed (awaiting
// result delivery at the terminal segment), and the item state after the
// replayed groups.
type fentry[K cmp.Ordered, V any] struct {
	pending []*group[K, V]
	done    []*group[K, V]
	known   bool
	present bool
	val     V
}

// replay resolves all pending groups starting from the given state, moves
// them to done, and records the resulting state.
func (e *fentry[K, V]) replay(present bool, val V) (bool, V) {
	for _, g := range e.pending {
		present, val = g.resolve(present, val, nil)
	}
	e.done = append(e.done, e.pending...)
	e.pending = nil
	e.known, e.present, e.val = true, present, val
	return present, val
}

// start returns the state to replay from: the recorded state if a previous
// replay happened (e.g. a tagged deletion), absent otherwise.
func (e *fentry[K, V]) start() (bool, V) {
	if e.known {
		return e.present, e.val
	}
	var zero V
	return false, zero
}

// filter ensures all operations inside the final slab are on distinct
// items. Guarded by FL[0]; size is published atomically for the interface's
// ready condition.
type filter[K cmp.Ordered, V any] struct {
	tree *twothree.Tree[K, *fentry[K, V]]
	size atomic.Int64
}

// fseg is one final slab segment S[k] (k >= m) with its buffer, locks,
// activation and run scratch.
type fseg[K cmp.Ordered, V any] struct {
	m2  *M2[K, V]
	k   int // global segment index
	seg *segment[K, V]

	left  *locks.Dedicated // shared with S[k-1] (nlock0 for k == m)
	right *locks.Dedicated // shared with S[k+1], pre-created
	fl    *locks.Dedicated // FL[k-m] (m2.fl0 for k == m)

	buf      []*group[K, V] // sorted by key; guarded by left
	bufSpare []*group[K, V] // enqueue's copy-merge backing; guarded by left
	bufA     atomic.Int64

	act *locks.Activation

	// Run scratch, reused across activations (runs of one segment never
	// overlap).
	keysSc    []K
	foundSc   []*segLeaf[K, V]
	fKeys     []K
	fGroups   []*group[K, V]
	fPresent  []bool
	fVals     []V
	belowSc   []*locks.Dedicated
	onwardSc  []*group[K, V]
	insKeysSc []K
	insValsSc []V
	ms        moveScratch[K, V]
}

// M2 is the pipelined parallel working-set map of Section 7 (Theorem 4):
// the first log Θ(log p) segments form the first slab, processed like M1;
// unfinished operations pass through a filter that keeps in-flight final
// slab operations on distinct items, and the final slab segments run as
// independently activated processes synchronized by neighbour-locks and
// front-locks, scheduled at high priority on a weak-priority pool.
//
// M2 is the paper's structure and nothing more: search, insert and delete
// (singly or through Apply). It serves no range reads, carries no per-key
// hooks and has no byte budget — those belong to the serving engine, M1.
//
// All methods are safe for concurrent use; each call blocks until the
// engine returns its result.
type M2[K cmp.Ordered, V any] struct {
	batcher[K, V] // the interface, with no group arena (see groupArena)

	mSeg int // number of first slab segments (the paper's m)
	pool *sched.Pool

	// Interface scratch for filterAndForward (safe to reuse because
	// enqueue copy-merges rather than aliasing fwd).
	fwdSc      []*group[K, V]
	fltFoundSc []*twothree.Node[K, *fentry[K, V]]
	fltItemSc  []twothree.Item[K, *fentry[K, V]]

	first slab[K, V] // S[0..m-1]; S[m-1] additionally under nlock0+FL[0]

	flt    filter[K, V]
	fl0    *locks.Dedicated // FL[0]
	nlock0 *locks.Dedicated // between S[m-1] and S[m]

	segsMu sync.RWMutex
	fsegs  []*fseg[K, V]
}

// NewM2 creates an M2 map. Close must be called to release its scheduler
// pool.
func NewM2[K cmp.Ordered, V any](cfg Config) *M2[K, V] {
	if cfg.MaxBytes > 0 {
		panic("core: M2 has no byte budget")
	}
	cfg = cfg.withDefaults()
	// m = ceil(log log 2p^2) + 1 (Section 7.1).
	twoP2 := 2 * cfg.P * cfg.P
	loglog := bits.Len(uint(bits.Len(uint(twoP2-1)) - 1))
	mSeg := loglog + 1
	if mSeg < 2 {
		mSeg = 2
	}
	m := &M2[K, V]{
		mSeg:   mSeg,
		pool:   sched.New(cfg.P),
		fl0:    locks.NewDedicated(3),
		nlock0: locks.NewDedicated(2),
	}
	m.init(cfg, "M2")
	m.first.cnt = cfg.Counter
	m.first.obs = cfg.Obs
	m.first.pool = twothree.NewNodePool[K, V]()
	m.first.segs = make([]*segment[K, V], mSeg)
	for k := 0; k < mSeg; k++ {
		m.first.segs[k] = newSegment[K, V](k, cfg.Counter, m.first.pool)
	}
	m.flt.tree = twothree.NewPooled[K, *fentry[K, V]](cfg.Counter, twothree.NewNodePool[K, *fentry[K, V]]())
	m.act = locks.NewAsyncActivation(
		func() bool { return m.ready() && m.flt.size.Load() <= int64(cfg.P*cfg.P) },
		m.interfaceRun,
		func(fn func()) { m.pool.Submit(fn, sched.Low) },
	)
	return m
}

// FilterSize returns the current filter occupancy (diagnostics).
func (m *M2[K, V]) FilterSize() int { return int(m.flt.size.Load()) }

// SchedStats returns the scheduler pool's counters.
func (m *M2[K, V]) SchedStats() sched.Stats { return m.pool.Stats() }

// Close waits for in-flight operations and releases the scheduler pool.
func (m *M2[K, V]) Close() {
	m.batcher.Close()
	m.pool.Close()
}

// Quiesce blocks until no client operations are in flight and all
// scheduled engine activity has drained (test hook).
func (m *M2[K, V]) Quiesce() {
	m.pending.Wait()
	m.pool.Wait()
}

// interfaceRun is one run of the M2 interface (Section 7.1 steps 1-6):
// take a size-p² cut batch, entropy-sort it, pass it through the first
// slab, then filter the unfinished operations into S[m]'s buffer.
func (m *M2[K, V]) interfaceRun() bool {
	batch := m.cut(1)
	if len(batch) == 0 {
		return false
	}
	m.batches.Add(1)
	// No arena: the groups outlive the batch in the filter and final slab.
	groups := m.group(batch, nil)

	// First slab pass over S[0..m-2]: no locks needed, only the interface
	// touches these segments.
	pending := groups
	sizeDelta := 0
	for k := 0; k < m.mSeg-1 && len(pending) > 0; k++ {
		var d int
		pending, d = m.first.pass(k, pending)
		sizeDelta += d
	}
	if len(pending) == 0 {
		m.sizeA.Add(int64(sizeDelta))
		return true
	}

	// S[m-1] and everything beyond are shared with S[m]: lock.
	m.nlock0.Acquire(nlKeyLeft)
	m.fl0.Acquire(flKeyInterface)

	var d int
	pending, d = m.first.pass(m.mSeg-1, pending)
	sizeDelta += d
	// Publish the first slab's deletions before their calls can complete
	// — below, or in a final slab run the moment filterAndForward hands
	// them over. Every size change in M2 is published before the calls it
	// accounts for complete, so a client's acked writes are visible to
	// its next Len.
	m.sizeA.Add(int64(sizeDelta))

	if len(pending) > 0 {
		m.segsMu.RLock()
		hasFinal := len(m.fsegs) > 0
		m.segsMu.RUnlock()
		if hasFinal {
			m.filterAndForward(pending)
		} else {
			// No final slab: the first slab is the end of the structure.
			// What S[m-1] cannot hold of the insertions — its coldest
			// items — goes into a newly created S[m].
			n, overflow := m.first.finish(pending, m.mSeg)
			if overflow.len() > 0 {
				m.createFseg(m.mSeg, m.nlock0).seg.pushFront(overflow)
			}
			m.sizeA.Add(int64(n))
			completeAll(pending)
		}
	}

	m.fl0.Release()
	m.nlock0.Release()
	return true
}

// filterAndForward passes the unfinished groups through the filter
// (Section 7.1 interface step 4): operations on items already in the
// filter are absorbed into their entries; the rest create entries and move
// into S[m]'s buffer. Caller holds nlock0 and FL[0].
func (m *M2[K, V]) filterAndForward(pending []*group[K, V]) {
	keys := m.keySc[:0] // the batch sort is done with it by now
	for _, g := range pending {
		keys = append(keys, g.key)
	}
	m.keySc = keys
	m.fltFoundSc = grow(m.fltFoundSc, len(keys))
	found := m.flt.tree.BatchGetInto(keys, m.fltFoundSc)
	fwd := m.fwdSc[:0]
	items := m.fltItemSc[:0]
	absorbed := 0
	for i, g := range pending {
		if found[i] != nil {
			// Answered by the filter: the in-flight entry's replay will
			// resolve these calls, at the depth the filter guards.
			absorbed += len(g.calls)
			e := found[i].Payload
			e.pending = append(e.pending, g)
			continue
		}
		e := &fentry[K, V]{}
		if g.resolved {
			// A deletion that already succeeded in the first slab: its
			// results are final; the entry records the post-deletion state
			// so later operations on the key replay from "absent".
			e.done = []*group[K, V]{g}
			e.known, e.present = true, false
		} else {
			e.pending = []*group[K, V]{g}
		}
		items = append(items, twothree.Item[K, *fentry[K, V]]{Key: g.key, Payload: e})
		fwd = append(fwd, g)
	}
	m.cfg.Obs.RecordLookup(obs.SrcFilter, m.mSeg, absorbed)
	if len(items) > 0 {
		m.flt.tree.BatchUpsert(items)
		m.flt.size.Add(int64(len(items)))
	}
	if len(fwd) > 0 {
		m.segsMu.RLock()
		sm := m.fsegs[0]
		m.segsMu.RUnlock()
		sm.enqueue(fwd) // copies: fwd stays interface scratch
		sm.act.Activate()
	}
	m.fwdSc = fwd
	// The entries and leaves live on in the filter; the scratch need not
	// pin them (nor their groups, once 4c removes the entries).
	clear(items)
	m.fltItemSc = items[:0]
	clear(found)
}

// createFseg creates final slab segment S[k] with the given left
// neighbour-lock and appends it to the slab. Callers must hold the locks
// that make the terminal position stable (nlock0+FL[0] for k == m, the
// creator's neighbour locks otherwise).
func (m *M2[K, V]) createFseg(k int, left *locks.Dedicated) *fseg[K, V] {
	f := &fseg[K, V]{
		m2:    m,
		k:     k,
		seg:   newSegment[K, V](k, m.cfg.Counter, m.first.pool),
		left:  left,
		right: locks.NewDedicated(2),
	}
	if k == m.mSeg {
		f.fl = m.fl0
	} else {
		f.fl = locks.NewDedicated(3)
	}
	f.act = locks.NewAsyncActivation(
		func() bool { return f.bufA.Load() > 0 },
		f.run,
		func(fn func()) { m.pool.Submit(fn, sched.High) },
	)
	m.segsMu.Lock()
	m.fsegs = append(m.fsegs, f)
	m.segsMu.Unlock()
	return f
}

// enqueue merges sorted groups into the segment's buffer. The merged
// buffer is built in the segment's spare backing and never aliases the
// caller's slice, so callers keep their group slices as scratch. The two
// backings ping-pong (the spare becomes the retired buffer, plus the
// flushed buffer donated back at the end of each run), so steady-state
// enqueues allocate nothing. Caller holds the segment's left
// neighbour-lock, which also guards buf/bufSpare.
func (f *fseg[K, V]) enqueue(groups []*group[K, V]) {
	merged := mergeGroupsInto(f.bufSpare[:0], f.buf, groups)
	clear(f.buf)
	f.bufSpare = f.buf[:0]
	f.buf = merged
	f.bufA.Store(int64(len(merged)))
}

// mergeGroupsInto merges the key-sorted group slices a and b into dst
// (appended; dst must not alias a or b).
func mergeGroupsInto[K cmp.Ordered, V any](dst, a, b []*group[K, V]) []*group[K, V] {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j].key < a[i].key {
			dst = append(dst, b[j])
			j++
		} else {
			dst = append(dst, a[i])
			i++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// run executes one activation of final slab segment S[k] (Section 7.1
// steps 1-7).
func (f *fseg[K, V]) run() bool {
	m := f.m2
	pos := f.k - m.mSeg

	// Step 1: neighbour locks in arrow order (parity of k-m).
	if pos%2 == 0 {
		f.left.Acquire(nlKeyRight)
		f.right.Acquire(nlKeyLeft)
	} else {
		f.right.Acquire(nlKeyLeft)
		f.left.Acquire(nlKeyRight)
	}
	// Step 2: S[m] guards the filter and its own contents with FL[0] for
	// its entire run.
	if pos == 0 {
		f.fl.Acquire(flKeyOwner)
	}

	f.runLocked(pos)

	if pos == 0 {
		f.fl.Release()
	}
	f.right.Release()
	f.left.Release()
	return false // the ready condition re-checks the buffer
}

// inRPrime reports whether key is in this run's R' (found and
// net-present), by binary search over the run's sorted found keys.
func (f *fseg[K, V]) inRPrime(key K) bool {
	i := sort.Search(len(f.fKeys), func(j int) bool { return f.fKeys[j] >= key })
	return i < len(f.fKeys) && f.fKeys[i] == key && f.fPresent[i]
}

// runLocked is the body of a segment run, with neighbour locks (and, for
// S[m], FL[0]) held.
func (f *fseg[K, V]) runLocked(pos int) {
	m := f.m2

	// Step 3: terminal growth check.
	m.segsMu.RLock()
	isTerminal := m.fsegs[len(m.fsegs)-1] == f
	// prev is S[k-1], target is S[m'] of step 4d: S[m-1] for S[m]'s own
	// run, S[m] for every deeper segment.
	prev, target := m.first.segs[m.mSeg-1], m.first.segs[m.mSeg-1]
	if pos > 0 {
		prev = m.fsegs[pos-1].seg // stable: its removal would need our left lock
		target = m.fsegs[0].seg
	}
	m.segsMu.RUnlock()
	if isTerminal && prev.size()+f.seg.size() > capOf(f.k-1)+capOf(f.k) {
		m.createFseg(f.k+1, f.right)
		isTerminal = false
	}

	// Step 4: flush and process the buffer.
	A := f.buf
	f.buf = nil
	f.bufA.Store(0)
	if len(A) == 0 {
		return
	}

	// 4a: search for the accessed items; delete the found set R from S[k].
	keys := f.keysSc[:0]
	for _, g := range A {
		keys = append(keys, g.key)
	}
	f.keysSc = keys
	f.foundSc = grow(f.foundSc, len(keys))
	found := f.seg.km.BatchGetInto(keys, f.foundSc)
	fKeys := f.fKeys[:0]
	fGroups := f.fGroups[:0]
	for i, lf := range found {
		if lf != nil {
			fKeys = append(fKeys, keys[i])
			fGroups = append(fGroups, A[i])
		}
	}
	f.fKeys, f.fGroups = fKeys, fGroups
	mb := f.ms.removeItems(f.seg, fKeys)

	// 4b: front locks, descending.
	if pos > 0 {
		f.fl.Acquire(flKeyOwner)
		m.segsMu.RLock()
		below := grow(f.belowSc, pos)
		for j := 0; j < pos; j++ {
			below[j] = m.fsegs[j].fl
		}
		m.segsMu.RUnlock()
		f.belowSc = below
		for j := pos - 1; j >= 0; j-- {
			below[j].Acquire(flKeyDescend)
		}
	}

	// 4c: consult the filter for each found item. Every travelling group
	// found here is answered at this segment (its entry's replay resolves
	// it, present or net-deleted); absorbed groups riding the same entry
	// were attributed to the filter when they joined it.
	if eo := m.cfg.Obs; eo != nil {
		n := 0
		for _, g := range fGroups {
			n += len(g.calls)
		}
		eo.RecordLookup(obs.SrcFinalSlab, f.k, n)
	}
	f.fPresent = grow(f.fPresent, len(fGroups))
	f.fVals = grow(f.fVals, len(fGroups))
	for i, g := range fGroups {
		leaf, ok := m.flt.tree.Get(g.key)
		if !ok {
			panic("core: M2 found item with no filter entry")
		}
		e := leaf.Payload
		p, v := e.replay(true, mb.kmLeaves[i].Payload)
		f.fPresent[i] = p
		if p {
			// Searched/updated: belongs to R'.
			f.fVals[i] = v
			m.flt.tree.Delete(g.key)
			m.flt.size.Add(-1)
			completeAll(e.done)
		} else {
			// Net deletion: tag and keep travelling; results return at the
			// terminal segment. (Size changes are published where they
			// happen, ahead of the completion — see interfaceRun.)
			g.deleted = true
			m.sizeA.Add(-1)
		}
	}

	// 4d: shift R' to the front of S[m'], plus terminal resolution.
	for i := range fGroups {
		if f.fPresent[i] {
			mb.kmLeaves[i].Payload = f.fVals[i]
		}
	}
	kept := mb.keepOnly(func(i int) bool { return f.fPresent[i] }, func(key K) bool {
		i := sort.Search(len(fKeys), func(j int) bool { return fKeys[j] >= key })
		return f.fPresent[i]
	})
	target.pushFront(kept)

	if isTerminal {
		f.resolveTerminal(A, target)
	}

	// 4e: if the filter has room, reactivate the interface.
	if m.flt.size.Load() <= int64(m.cfg.P*m.cfg.P) {
		m.act.Activate()
	}

	// 4f: release front locks ascending — except for S[m+1], whose step
	// 4g/4h transfers touch the contents of S[m] and therefore stay under
	// FL[0].
	releaseFLs := func() {
		if pos > 0 {
			m.segsMu.RLock()
			for j := 0; j < pos; j++ {
				m.fsegs[j].fl.Release()
			}
			m.segsMu.RUnlock()
			f.fl.Release()
		}
	}
	if pos != 1 {
		releaseFLs()
	}

	// 4g: rearward transfer if S[k-1] exceeds capacity.
	if ex := prev.overBy(); ex > 0 {
		f.seg.pushFront(f.ms.popBack(prev, ex, false))
	}
	// 4h: frontward transfer bounded by the successful deletions in A.
	dSucc := 0
	for _, g := range A {
		if g.deleted {
			dSucc++
		}
	}
	if under := prev.underBy(); under > 0 && dSucc > 0 {
		x := min(under, f.seg.size(), dSucc)
		if x > 0 {
			prev.pushBack(f.ms.popFront(f.seg, x, false))
		}
	}
	if pos == 1 {
		releaseFLs()
	}

	// 4i: pass A∖R' on to S[k+1].
	if !isTerminal {
		onward := f.onwardSc[:0]
		for _, g := range A {
			if !f.inRPrime(g.key) {
				onward = append(onward, g)
			}
		}
		f.onwardSc = onward
		if len(onward) > 0 {
			m.segsMu.RLock()
			next := m.fsegs[pos+1]
			m.segsMu.RUnlock()
			next.enqueue(onward) // copies; under f.right, next's left lock
			next.act.Activate()
		}
	}

	// Step 5: remove an empty terminal segment.
	if isTerminal && f.seg.size() == 0 {
		m.segsMu.Lock()
		if m.fsegs[len(m.fsegs)-1] == f {
			m.fsegs = m.fsegs[:len(m.fsegs)-1]
		}
		m.segsMu.Unlock()
	}

	// Donate the flushed buffer's backing as the enqueue spare (see
	// enqueue; upstream enqueues are excluded until our left lock drops),
	// and drop the value/leaf/group references the next run would
	// otherwise pin.
	clear(A)
	if cap(A) > cap(f.bufSpare) {
		f.bufSpare = A[:0]
	}
	clear(found)
	clear(f.fGroups)
	f.fGroups = f.fGroups[:0]
	clear(f.fVals)
}

// resolveTerminal handles the terminal-segment clause of step 4d: every
// group in A∖R' resolves against its filter entry; net-present outcomes
// insert fresh items at the front of S[m']; all accumulated results are
// returned and the entries leave the filter.
func (f *fseg[K, V]) resolveTerminal(a []*group[K, V], target *segment[K, V]) {
	m := f.m2
	insKeys := f.insKeysSc[:0]
	insVals := f.insValsSc[:0]
	tailCalls := 0
	for _, g := range a {
		if f.inRPrime(g.key) {
			continue
		}
		if !g.resolved {
			// Reached the end of the structure unresolved: a miss or a
			// fresh insert. (Resolved travellers — net deletions answered
			// at an earlier segment, tagged first-slab deletions — were
			// recorded where they resolved.)
			tailCalls += len(g.calls)
		}
		leaf, ok := m.flt.tree.Get(g.key)
		if !ok {
			panic("core: M2 terminal op with no filter entry")
		}
		e := leaf.Payload
		sp, sv := e.start()
		p, v := e.replay(sp, sv)
		if p {
			insKeys = append(insKeys, g.key) // a is key-sorted
			insVals = append(insVals, v)
			m.sizeA.Add(1)
		}
		completeAll(e.done)
		m.flt.tree.Delete(g.key)
		m.flt.size.Add(-1)
	}
	m.cfg.Obs.RecordLookup(obs.SrcTail, f.k+1, tailCalls)
	if len(insKeys) > 0 {
		target.pushFront(f.ms.newItems(insKeys, insVals))
	}
	f.insKeysSc = insKeys
	clear(insVals)
	f.insValsSc = insVals[:0]
}

// CheckInvariants verifies the M2 balance invariants of Lemma 16 plus
// structural consistency. Only valid while the map is quiescent (test
// hook).
func (m *M2[K, V]) CheckInvariants() error {
	if err := m.first.checkInvariants(false); err != nil {
		return fmt.Errorf("first slab: %w", err)
	}
	m.segsMu.RLock()
	defer m.segsMu.RUnlock()
	total := m.first.size()
	// Invariant 1/2: quiescent first slab segments are within capacity,
	// and S[0..m-2] has no holes (full prefix) unless the structure has
	// fewer items.
	for k, seg := range m.first.segs {
		if seg.size() > seg.cap {
			return fmt.Errorf("first slab segment %d over capacity: %d > %d", k, seg.size(), seg.cap)
		}
	}
	for i, f := range m.fsegs {
		if err := checkSegs([]*segment[K, V]{f.seg}); err != nil {
			return fmt.Errorf("final slab segment %d: %w", f.k, err)
		}
		if f.k != m.mSeg+i {
			return fmt.Errorf("final slab segment %d has index %d", i, f.k)
		}
		// Invariant 3: size at most 3 * 2^(2^k).
		if f.seg.size() > 3*capOf(f.k) {
			return fmt.Errorf("final slab segment %d size %d exceeds 3x capacity %d", f.k, f.seg.size(), 3*capOf(f.k))
		}
		if int(f.bufA.Load()) != len(f.buf) {
			return fmt.Errorf("final slab segment %d buffer length mismatch", f.k)
		}
		if len(f.buf) != 0 {
			return fmt.Errorf("final slab segment %d has %d buffered groups while quiescent", f.k, len(f.buf))
		}
		total += f.seg.size()
	}
	if m.flt.size.Load() != 0 || m.flt.tree.Len() != 0 {
		return fmt.Errorf("filter not empty while quiescent: %d entries", m.flt.tree.Len())
	}
	if total != int(m.sizeA.Load()) {
		return fmt.Errorf("segments sum to %d, tracked size %d", total, m.sizeA.Load())
	}
	return nil
}
