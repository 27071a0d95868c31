package obs

// DepthSource classifies which structure answered a lookup — the
// paper-native taxonomy of where an operation's travel ended.
type DepthSource uint8

const (
	// SrcFirstSlab: resolved at a first-slab segment (M1: any segment;
	// M2: S[0..m-1] under the interface).
	SrcFirstSlab DepthSource = iota
	// SrcFilter: absorbed into an existing filter entry of an in-flight
	// key (M2 only) — answered at the filter, depth of the first slab.
	SrcFilter
	// SrcFinalSlab: resolved at a final slab segment's run (M2 only).
	SrcFinalSlab
	// SrcTail: reached the end of the structure — a miss or a fresh
	// insert, the full-traversal outcome.
	SrcTail
	// SrcFront: answered by the lock-free hot-key front cache ahead of
	// the batch pipeline (internal/frontcache) — the lookup never
	// entered the engine, recorded at depth 0.
	SrcFront

	// NumDepthSources is the number of depth-source classes.
	NumDepthSources = int(SrcFront) + 1
)

var srcNames = [NumDepthSources]string{
	"first_slab", "filter", "final_slab", "tail", "front",
}

// String returns the source's stable snake_case name.
func (s DepthSource) String() string {
	if int(s) < len(srcNames) {
		return srcNames[s]
	}
	return "unknown"
}

// EngineObs is one engine's depth telemetry: a histogram of the segment
// index at which each call was answered (the live witness of the
// O(log w) working-set property — recent keys resolve at small
// indices), per-source call counts, and range-serving counters.
// Engines record once per resolved group (RecordLookup with
// the group's call count), so the cost is a few atomic adds per group,
// not per call. All methods are nil-receiver no-ops.
type EngineObs struct {
	depth   Histogram
	sources [NumDepthSources]Histogram // per-source call counts ride Count; depth in buckets

	ranges    Histogram // range calls served; pairs ride Sum
	rangeLive Histogram
}

// RecordLookup records n calls answered by src at segment index depth.
func (e *EngineObs) RecordLookup(src DepthSource, depth int, n int) {
	if e == nil || n <= 0 {
		return
	}
	e.depth.RecordN(int64(depth), int64(n))
	e.sources[src].RecordN(int64(depth), int64(n))
}

// RecordRange records one batch of range calls and the pairs they
// emitted from the live segment trees.
func (e *EngineObs) RecordRange(calls, live int) {
	if e == nil {
		return
	}
	e.ranges.RecordN(int64(calls), 1)
	e.rangeLive.RecordN(int64(live), 1)
}

// EngineSnap is a point-in-time copy of an EngineObs.
type EngineSnap struct {
	// Depth is the lookup-depth histogram across all sources.
	Depth HistSnapshot
	// Sources holds per-source call counts (indexed by DepthSource).
	Sources [NumDepthSources]int64
	// RangeBatches counts range-serving batches; RangePairsLive the pairs
	// emitted across them.
	RangeBatches   int64
	RangePairsLive int64
}

// Snapshot returns a point-in-time copy.
func (e *EngineObs) Snapshot() EngineSnap {
	var s EngineSnap
	if e == nil {
		return s
	}
	s.Depth = e.depth.Snapshot()
	for i := range e.sources {
		s.Sources[i] = e.sources[i].Snapshot().Count
	}
	s.RangeBatches = e.ranges.Snapshot().Count
	s.RangePairsLive = e.rangeLive.Snapshot().Sum
	return s
}

// Merge folds o into s (associative; used to merge per-shard snaps).
func (s EngineSnap) Merge(o EngineSnap) EngineSnap {
	r := s
	r.Depth = s.Depth.Merge(o.Depth)
	for i := range r.Sources {
		r.Sources[i] += o.Sources[i]
	}
	r.RangeBatches += o.RangeBatches
	r.RangePairsLive += o.RangePairsLive
	return r
}

// MapObs bundles a sharded map's telemetry: one EngineObs per shard
// plus the shared batch-stage set. Nil-receiver safe throughout, so an
// untelemetered map hands out nil sinks and every record site downstream
// stays a no-op.
type MapObs struct {
	engines []*EngineObs
	stages  StageSet
}

// NewMapObs creates telemetry for a map with the given shard count.
func NewMapObs(shards int) *MapObs {
	m := &MapObs{engines: make([]*EngineObs, shards)}
	for i := range m.engines {
		m.engines[i] = &EngineObs{}
	}
	return m
}

// Engine returns shard i's depth-telemetry sink (nil when m is nil).
func (m *MapObs) Engine(i int) *EngineObs {
	if m == nil || i < 0 || i >= len(m.engines) {
		return nil
	}
	return m.engines[i]
}

// Stages returns the map's stage set (nil when m is nil).
func (m *MapObs) Stages() *StageSet {
	if m == nil {
		return nil
	}
	return &m.stages
}

// Shards returns the number of per-shard sinks.
func (m *MapObs) Shards() int {
	if m == nil {
		return 0
	}
	return len(m.engines)
}

// DepthSnapshot merges every shard's engine snapshot into one.
func (m *MapObs) DepthSnapshot() EngineSnap {
	var s EngineSnap
	if m == nil {
		return s
	}
	for _, e := range m.engines {
		s = s.Merge(e.Snapshot())
	}
	return s
}

// ShardDepths returns each shard's depth-histogram snapshot.
func (m *MapObs) ShardDepths() []HistSnapshot {
	if m == nil {
		return nil
	}
	out := make([]HistSnapshot, len(m.engines))
	for i, e := range m.engines {
		out[i] = e.depth.Snapshot()
	}
	return out
}
