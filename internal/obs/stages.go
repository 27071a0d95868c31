package obs

// Stage identifies one step of a batch's lifecycle, from the wire to
// the reply. Stage timings are recorded per batch (or per pipeline),
// never per operation, so tracing costs a couple of clock reads per
// batch no matter how many operations rode it.
type Stage uint8

const (
	// StageParse is a connection decoding a pipeline: from the first
	// (blocking) command of the pipeline to the end of the non-blocking
	// drain. The idle wait for the first command is excluded — it
	// measures the client, not the server.
	StageParse Stage = iota
	// StageQueueWait is a connection's job's time from Submit to its
	// combined batch being cut (per job).
	StageQueueWait
	// StageWindowWait is the coalescer's open-window time: from the
	// first job entering an empty queue to the cut (per batch).
	StageWindowWait
	// StageFanout is the shard map splitting a combined batch into
	// per-shard sub-batches (the counting sort).
	StageFanout
	// StageApply is the engine apply: from the first sub-batch handed
	// to a shard worker to the last sub-batch's results. On a durable
	// server it also covers the cut's fsync, which runs beside the
	// apply, when the fsync is the slower of the two.
	StageApply
	// StageReply is rendering a batch's replies into the write buffer.
	StageReply
	// StageFsync is the durability hook's sync: under fsync=always the
	// flush, zero-fill and fsync of the cut's WAL frame, which was
	// written before the apply and syncs while the shards apply it —
	// before the reply, so an acked write is on disk. It overlaps
	// StageApply, so stage shares can sum past 1 on a durable server.
	// Appended after StageReply so earlier stage indices stay stable;
	// zero-count when the server runs without a WAL.
	StageFsync

	// NumStages is the number of lifecycle stages.
	NumStages = int(StageFsync) + 1
)

var stageNames = [NumStages]string{
	"parse", "queue_wait", "window_wait", "fanout", "apply", "reply", "fsync",
}

// String returns the stage's stable snake_case name (used as STATS and
// /statsz keys; frozen by the server's golden test).
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// StageSet is a fixed set of per-stage duration histograms (values in
// nanoseconds). Nil-receiver safe like everything in this package.
type StageSet struct {
	h [NumStages]Histogram
}

// Record adds one duration observation (in nanoseconds) to stage st.
func (s *StageSet) Record(st Stage, ns int64) {
	if s == nil {
		return
	}
	s.h[st].Record(ns)
}

// RecordSince records the time elapsed since a Now() timestamp.
func (s *StageSet) RecordSince(st Stage, start int64) {
	if s == nil {
		return
	}
	s.h[st].Record(Since(start))
}

// Snapshot returns a snapshot of every stage histogram.
func (s *StageSet) Snapshot() [NumStages]HistSnapshot {
	var out [NumStages]HistSnapshot
	if s == nil {
		return out
	}
	for i := range s.h {
		out[i] = s.h[i].Snapshot()
	}
	return out
}
