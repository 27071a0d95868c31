// Package core implements the paper's working-set maps:
//
//   - M0 — the amortized sequential working-set map of Section 5, the
//     localized variant of Iacono's structure that M1 and M2 parallelize.
//   - M1 — the simple batched parallel working-set map of Section 6.
//   - M2 — the pipelined parallel working-set map of Section 7, with the
//     first slab, filter, final slab, neighbour-locks and front-locks.
//
// All three store items in a sequence of segments S[0..l], where segment
// S[k] has capacity 2^(2^k); the r most recently accessed items live in the
// first O(log log r) segments, which is what makes an access with recency r
// cost O(1 + log r) work. A segment is a recency-map, which says what it
// holds, and a key-map over the same leaves. In M1 every segment shares one
// key-map, which S[0..3] do not search: each keeps a key-sorted slice of
// its own leaves (deepKM), so an item found in S[4] or S[5] costs one
// descent, and a move between segments no key-map edit.
//
// The paper's implicit-batching interface — parallel buffer, feed, cuts
// of p² bunches, entropy sort, group operations — is written once, the
// batcher (batcher.go), and three maps embed it: M1, M2 and BatchedTree,
// the non-adaptive baseline, which runs each cut through one 2-3 tree
// instead of segments.
package core

import (
	"cmp"
	"sync"
)

// OpKind identifies a map operation.
type OpKind uint8

const (
	// OpGet searches for a key (a search/update in the paper's terms).
	OpGet OpKind = iota
	// OpInsert inserts a key or updates its value if present.
	OpInsert
	// OpDelete removes a key.
	OpDelete
	// OpRange is a bounded ordered range read [Key, Range.Hi): a batched
	// operation like the others — it rides the same cut batches, through
	// Do or ApplyInto — except that it never groups with point operations
	// and never adjusts recencies. Results are appended to Range.Out.
	// M1 only: submitting one to an M2 panics.
	OpRange
	// OpExpire arms (or clears) a key's TTL. To the engines it is a read
	// — it observes presence and touches recency like OpGet and never
	// mutates the stored value — except that resolving it against a
	// present item fires the KeyHooks.Arm hook: the deadline itself
	// lives in the sharded front-end's expiry table (internal/shard),
	// keyed off Op.Deadline, not in the segment trees, and the hook is
	// what orders the arm with every racing op on the key (see
	// KeyHooks). Result.OK reports whether the key was present (and not
	// already expired) when the op took effect.
	OpExpire
)

// String returns the operation-kind name.
func (k OpKind) String() string {
	switch k {
	case OpGet:
		return "get"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpRange:
		return "range"
	case OpExpire:
		return "expire"
	default:
		return "invalid"
	}
}

// KV is one key/value pair of a range read, delivered in ascending key
// order.
type KV[K cmp.Ordered, V any] struct {
	Key K
	Val V
}

// RangeReq carries an OpRange's parameters and receives its results. The
// engine appends up to Limit pairs with Op.Key <= key < Hi (key > Op.Key
// when XLo is set — the cursor-resume form) to Out, in ascending key
// order, before completing the call; the caller owns Out's backing array,
// so a paging caller reuses one buffer per page (the allocation
// discipline of DESIGN.md). The request must stay untouched between
// submission and collection.
type RangeReq[K cmp.Ordered, V any] struct {
	// Hi is the exclusive upper bound of the range.
	Hi K
	// Limit caps the appended pairs; <= 0 means no bound (and then the
	// result is never truncated).
	Limit int
	// XLo excludes Op.Key itself from the range, turning the lower bound
	// exclusive — how a cursor resumes after the last key of a page.
	XLo bool
	// Out receives the pairs (appended). Pass a zero-length slice with
	// retained capacity to page without allocating.
	Out []KV[K, V]
}

// Op is one map operation.
type Op[K cmp.Ordered, V any] struct {
	Kind     OpKind
	Key      K               // OpRange: inclusive (exclusive under XLo) lower bound
	Val      V               // OpInsert only
	Range    *RangeReq[K, V] // OpRange only
	Deadline int64           // OpExpire only: absolute unix-nano deadline; 0 clears the TTL
}

// Result is the outcome of one operation. For OpGet, Val/OK are the found
// value and whether it was present. For OpInsert, OK reports whether the
// key already existed and Val its previous value. For OpDelete, OK reports
// whether the key existed and Val the removed value. For OpRange, the
// pairs land in the request's Out slice and OK reports truncation: true
// when the engine stopped at Range.Limit and more matching items may
// remain (the caller's cue to issue the next cursor page).
type Result[V any] struct {
	Val V
	OK  bool
}

// call is an operation in flight: the op, its future result, and a
// completion channel. The channel has capacity 1 and is signalled (not
// closed), so the whole frame — channel included — is recycled through the
// engine's callPool instead of being garbage per operation: the submitter
// takes a frame from the pool, the engine fills res and signals done, the
// submitter wakes, copies the result out and returns the frame. The engine
// never touches a call after signalling it (the completion protocol of
// DESIGN.md's allocation-discipline section). M1.ApplyInto's frames are
// the engine's own and have no channel: their submitter is the goroutine
// running the cut, so there is nobody to signal.
type call[K cmp.Ordered, V any] struct {
	op   Op[K, V]
	res  Result[V]
	done chan struct{}
}

func (c *call[K, V]) wait() Result[V] {
	<-c.done
	return c.res
}

// complete delivers the result. Never blocks: done is buffered and each
// recycle of the frame pairs exactly one complete with one wait. A nil
// done (an ApplyInto frame) is a no-op.
func (c *call[K, V]) complete() {
	if c.done != nil {
		c.done <- struct{}{}
	}
}

// callPool recycles call frames (and their completion channels) for one
// engine. Frames may be recycled by any submitting goroutine, hence
// sync.Pool rather than an engine-private free list.
type callPool[K cmp.Ordered, V any] struct {
	p sync.Pool
}

func (cp *callPool[K, V]) get(op Op[K, V]) *call[K, V] {
	if v := cp.p.Get(); v != nil {
		c := v.(*call[K, V])
		c.op = op
		return c
	}
	return &call[K, V]{op: op, done: make(chan struct{}, 1)}
}

// put returns a waited-on frame to the pool, dropping key/value references
// so recycled frames do not pin client data.
func (cp *callPool[K, V]) put(c *call[K, V]) {
	var zeroOp Op[K, V]
	var zeroRes Result[V]
	c.op, c.res = zeroOp, zeroRes
	cp.p.Put(c)
}

// KeyHooks wires the sharded front-end's per-key sidecars (internal/
// shard: the expiry table and the hot-key read front) into M1's per-key
// serialization point: group resolution. Neither deadlines nor cached
// copies live in the engine — the hooks are how the sidecars' state
// transitions are ordered exactly with the engine's, which is what makes
// expiry linearizable and cached reads never stale. All five hooks run
// on the engine goroutine, inside the critical section that owns the
// key (Dead: the engine's whole slab), so they must be cheap and must
// never call back into the engine.
// An engine with no hooks installed (nil — always the case for M2, which
// has no sidecars) pays a single predictable branch per resolved call.
//
// The protocol:
//
//   - When an engine observes a present item (found in a segment tree),
//     it consults Ghost *before* replaying the group. Ghost reports
//     whether the key's armed deadline has passed, atomically retiring
//     the table entry when it has; true makes the engine treat the
//     observation as "absent", so the dead incarnation is removed
//     through the normal delete machinery — the observation IS the
//     deletion, at the key's serialization point, so no racing op can
//     ever see the ghost or double-delete it.
//   - Wrote fires as each insert or delete resolves — before the call's
//     result is released, and before any later operation on the key can
//     resolve and observe the new state. It is the one place a written
//     key's sidecar state is dropped: its cached front copy (so no
//     reader can see the new value and then a cached old one) and its
//     deadline (a fresh SET carries no TTL, and a DEL removes deadline
//     and key together).
//   - Read fires once a group that carries an OpGet and found its item
//     resident resolves net-present, after every Wrote of the group:
//     k is the resident item's key (map-owned, so a sidecar may retain
//     it) and v the group's final value. It is where the front stages
//     its one fill (published once the batch commits), so fills and
//     drops of a key are ordered by the engine like their ops.
//   - Arm fires as an OpExpire resolves against a present item,
//     setting the absolute deadline (0 clears it). It returns whether
//     the deadline was already past, in which case the engine treats
//     the op as an immediate delete (Redis EXPIRE with a non-positive
//     TTL) instead of arming a dead-on-arrival entry.
//   - Dead is the ordered reads' consult, called once per range op where
//     the range linearizes, and once per Items walk. It returns nil when
//     no key can be expired, else a predicate fixed at one clock reading
//     that reports whether a resident key is past its deadline; the
//     reader skips those keys and retires nothing. It agrees with Ghost
//     because the table changes only through the hooks, in the engine.
type KeyHooks[K cmp.Ordered, V any] struct {
	Ghost func(k K) bool
	Wrote func(k K)
	Read  func(k K, v V)
	Arm   func(k K, deadline int64) bool
	Dead  func() func(k K) bool
}

// ghost is the nil-safe Ghost consult used at the present-observation
// sites: true means the observed incarnation is past its deadline (and
// its table entry has been retired), so the observer replays the group
// from "absent".
func (h *KeyHooks[K, V]) ghost(k K) bool {
	return h != nil && h.Ghost(k)
}

// read fires Read for a resolved, net-present group g that carries an
// OpGet, with its resident item's key k and final value v (nil-safe).
func (h *KeyHooks[K, V]) read(g *group[K, V], k K, v V) {
	if h == nil {
		return
	}
	for _, c := range g.calls {
		if c.op.Kind == OpGet {
			h.Read(k, v)
			return
		}
	}
}

// dead is the nil-safe Dead consult of the ordered reads: nil means
// every resident key is live.
func (h *KeyHooks[K, V]) dead() func(K) bool {
	if h == nil {
		return nil
	}
	return h.Dead()
}

// group is the paper's group-operation (Section 6.1, footnote 7): all
// operations of one batch on the same key, combined into a single operation
// with the same cumulative effect. calls are kept in arrival order so that
// each individual result can be replayed once the group observes the item's
// state.
type group[K cmp.Ordered, V any] struct {
	key   K
	calls []*call[K, V]

	// resolved is set once results have been computed (replayed).
	resolved bool
	// deleted tags a group whose net effect was a successful deletion; the
	// group keeps travelling through later segments to drive the capacity
	// restoration (Sections 6.1, 7.1) before its results are returned.
	deleted bool
	// leaf is the group's item when M1's key-map, searched at S[deepKM],
	// found it in a deeper segment (slab.lookup), until that one's pass.
	leaf *segLeaf[K, V]
}

// resolve replays the group's operations against the observed item state
// and fills in every call's result. It returns the item's state after the
// group. An item counts as accessed — i.e. it moves to the front — exactly
// when it is present after the group.
//
// Replaying an insert also re-points g.key at the inserting call's key.
// The two are equal by value, but not necessarily by backing: a group may
// combine a search and an insert on the same key, and g.key starts as the
// first arrival's — possibly the search's. Downstream insertion paths
// (slab.finish, M2's terminal resolution) store g.key in the segment
// trees, and only insert keys carry the caller's guarantee of a stable
// backing (the server hands out transient arena-backed strings for search
// keys but copies inserted ones; see wire.Reader's aliasing contract).
// The hooks (nil = none) fire as the ops they concern take effect, so
// sidecar state transitions are ordered exactly with the engine's; see
// KeyHooks for the protocol. A caller at a present-observation site
// must consult hooks.ghost first and pass the (possibly flipped) state.
func (g *group[K, V]) resolve(present bool, val V, hooks *KeyHooks[K, V]) (netPresent bool, netVal V) {
	for _, c := range g.calls {
		switch c.op.Kind {
		case OpGet:
			c.res = Result[V]{Val: val, OK: present}
		case OpExpire:
			c.res = Result[V]{Val: val, OK: present}
			if present && hooks != nil && hooks.Arm(c.op.Key, c.op.Deadline) {
				// Deadline already past: the expire is an immediate
				// delete, still inside this group's replay.
				var zero V
				val, present = zero, false
			}
		case OpInsert:
			c.res = Result[V]{Val: val, OK: present}
			val, present = c.op.Val, true
			g.key = c.op.Key
			if hooks != nil {
				hooks.Wrote(c.op.Key)
			}
		case OpDelete:
			c.res = Result[V]{Val: val, OK: present}
			var zero V
			val, present = zero, false
			if hooks != nil {
				hooks.Wrote(c.op.Key)
			}
		}
	}
	g.resolved = true
	return present, val
}

// complete signals every call's done channel, delivering results. The
// sends are non-blocking (buffered completion channels), so results are
// delivered inline on the engine — the paper's "fork to return the
// results" is unnecessary once delivery cannot block, and dropping the
// fork removes a goroutine spawn per batch and bounds group lifetime to
// the batch (which is what lets M1 recycle group frames).
func (g *group[K, V]) complete() {
	for _, c := range g.calls {
		c.complete()
	}
}

// completeAll delivers results for a set of groups.
func completeAll[K cmp.Ordered, V any](groups []*group[K, V]) {
	for _, g := range groups {
		g.complete()
	}
}

// groupArena recycles group frames across batches. Only valid when every
// group of a batch completes before the next batch starts: true for M1,
// whose runSegments completes the stragglers inline, and for BatchedTree;
// NOT true for M2, whose groups outlive the interface batch inside the
// filter and final slab — M2 passes a nil arena and gets fresh frames.
type groupArena[K cmp.Ordered, V any] struct {
	frames []*group[K, V]
	used   int
}

// get returns a reset frame, reusing a prior batch's when available.
func (a *groupArena[K, V]) get(key K) *group[K, V] {
	if a.used < len(a.frames) {
		g := a.frames[a.used]
		a.used++
		g.key = key
		g.calls = g.calls[:0]
		g.resolved, g.deleted, g.leaf = false, false, nil
		return g
	}
	g := &group[K, V]{key: key}
	a.frames = append(a.frames, g)
	a.used++
	return g
}

// reset makes every frame available again (call at batch start).
func (a *groupArena[K, V]) reset() { a.used = 0 }

// buildGroups combines a batch of calls into key-sorted groups using the
// provided sorting permutation (from the entropy sort). Calls on the same
// key keep their arrival order. Groups are appended to out (pass scratch
// with length 0 to reuse its backing array); frames come from ar when
// non-nil (see groupArena for the lifetime contract).
func buildGroups[K cmp.Ordered, V any](batch []*call[K, V], perm []int, out []*group[K, V], ar *groupArena[K, V]) []*group[K, V] {
	for i := 0; i < len(perm); {
		k := batch[perm[i]].op.Key
		var g *group[K, V]
		if ar != nil {
			g = ar.get(k)
		} else {
			g = &group[K, V]{key: k}
		}
		j := i
		for j < len(perm) && batch[perm[j]].op.Key == k {
			g.calls = append(g.calls, batch[perm[j]])
			j++
		}
		out = append(out, g)
		i = j
	}
	return out
}

// opRecorder optionally records the linearization the engine induces (the
// order in which operations take effect), for the working-set-bound
// experiments.
type opRecorder[K cmp.Ordered, V any] struct {
	mu  sync.Mutex
	log []Op[K, V]
	on  bool
}

func (r *opRecorder[K, V]) recordGroups(groups []*group[K, V]) {
	if !r.on {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range groups {
		for _, c := range g.calls {
			r.log = append(r.log, c.op)
		}
	}
}

func (r *opRecorder[K, V]) take() []Op[K, V] {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.log
	r.log = nil
	return out
}
