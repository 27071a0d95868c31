// Stats surfaces. Every number the server exposes is registered once,
// in registerStats, by its /statsz path; the STATS reply, /statsz and
// /metrics are three renderings of that one obs.Registry, and
// obs.Names derives each surface's name from the path:
//
//	/statsz   {"coalesce": {"window_cuts": 12}}
//	STATS     SECTION coalesce / coalesce_window_cuts 12
//	/metrics  wsd_coalesce_window_cuts_total 12
//
// The admin endpoint is an HTTP mux served on a separate listener from
// the wire protocol (wsd -admin):
//
//   - /metrics  — Prometheus text exposition; nanosecond histograms in
//     seconds.
//   - /statsz   — JSON with full (trimmed) histogram buckets, so a
//     client can reconstruct snapshots with obs.FromBuckets, diff two
//     scrapes with HistSnapshot.Sub, and quantile the interval — this
//     is how wsload reports server-side percentiles per run.
//   - /debug/pprof/* — the standard Go profiles.
//
// Every value is an atomic load or an atomic histogram snapshot: a
// render takes no lock, so it never waits out an fsync in flight.
package server

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"

	"repro/internal/obs"
)

// registerStats builds the server's stats table. Blocks register in
// surface order, each block's histograms after its scalars; work, wal
// and front exist only when configured. avg_batch and a work total are
// not registered: readers divide ops by batches, or sum the parts.
func (s *Server) registerStats() *obs.Registry {
	r := obs.NewRegistry("wsd")
	r.Gauge("shards", func() int64 { return int64(s.store.Shards()) })
	r.Gauge("keys", func() int64 { return int64(s.store.Len()) })

	st := &s.st
	r.Gauge("server.conns", st.activeConns.Load)
	r.Counter("server.total_conns", st.totalConns.Load)
	r.Counter("server.rejected_conns", st.rejectedConns.Load)
	r.Counter("server.batches", func() int64 { return s.CoalesceStats().Batches })
	r.Counter("server.ops", func() int64 { return s.CoalesceStats().Ops })
	r.Gauge("server.max_batch", func() int64 { return s.CoalesceStats().MaxBatch })
	r.Counter("server.gets", st.gets.Load)
	r.Counter("server.sets", st.sets.Load)
	r.Counter("server.dels", st.dels.Load)
	r.Counter("server.expires", st.expires.Load)
	r.Counter("server.scans", st.scans.Load)
	r.Counter("server.errors", st.errors.Load)

	// Byte accounting always runs, so memory is always present;
	// max_bytes 0 means unbounded.
	r.Gauge("memory.max_bytes", func() int64 { return s.Mem().MaxBytes })
	r.Gauge("memory.bytes", func() int64 { return s.Mem().Bytes })
	r.Counter("memory.evicted", func() int64 { return s.Mem().Evicted })
	r.Counter("memory.expired", func() int64 { return s.Mem().Expired })
	r.Gauge("memory.ttls", func() int64 { return s.Mem().TTLs })

	r.Info("coalesce.window", s.cfg.CoalesceWindow.String)
	r.Counter("coalesce.batches", func() int64 { return s.CoalesceStats().Batches })
	r.Counter("coalesce.ops", func() int64 { return s.CoalesceStats().Ops })
	r.Gauge("coalesce.max_batch", func() int64 { return s.CoalesceStats().MaxBatch })
	r.Counter("coalesce.jobs", func() int64 { return s.CoalesceStats().Jobs })
	r.Counter("coalesce.size_cuts", func() int64 { return s.CoalesceStats().SizeCuts })
	r.Counter("coalesce.window_cuts", func() int64 { return s.CoalesceStats().WindowCuts })
	r.Counter("coalesce.drain_cuts", func() int64 { return s.CoalesceStats().DrainCuts })
	r.Counter("coalesce.handoffs", func() int64 { return s.CoalesceStats().Handoffs })

	r.Counter("shard.fanout_caller", func() int64 { c, _ := s.store.FanoutStats(); return c })
	r.Counter("shard.fanout_worker", func() int64 { _, w := s.store.FanoutStats(); return w })

	depth := s.obsm.DepthSnapshot
	r.Counter("range.batches", func() int64 { return depth().RangeBatches })
	r.Counter("range.pairs_live", func() int64 { return depth().RangePairsLive })
	// A server's engines are M1s: a lookup resolves at a segment, at the
	// tail, or in the front. M2's filter and final_slab sources would
	// read zero here forever.
	for _, src := range []obs.DepthSource{obs.SrcFirstSlab, obs.SrcTail, obs.SrcFront} {
		r.Counter("depth_sources."+src.String(), func() int64 { return depth().Sources[src] })
	}
	r.Hist("depth", func() obs.HistSnapshot { return depth().Depth })

	for i := range obs.NumStages {
		r.HistNS("stages."+obs.Stage(i).String(), func() obs.HistSnapshot { return s.stages().Snapshot()[i] })
	}

	if w := s.work; w != nil {
		r.Counter("work.visits", w.Total)
	}

	if l := s.wal; l != nil {
		r.Info("wal.policy", func() string { return l.Stats().Policy })
		r.Gauge("wal.seq", func() int64 { return int64(l.Stats().Seq) })
		r.Gauge("wal.snap_seq", func() int64 { return int64(l.Stats().SnapSeq) })
		r.Counter("wal.batches", func() int64 { return l.Stats().Batches })
		r.Counter("wal.records", func() int64 { return l.Stats().Records })
		r.Counter("wal.bytes", func() int64 { return l.Stats().Bytes })
		r.Counter("wal.syncs", func() int64 { return l.Stats().Syncs })
		r.Counter("wal.sync_errors", func() int64 { return l.Stats().SyncErrors })
		r.Counter("wal.rotations", func() int64 { return l.Stats().Rotations })
		r.Counter("wal.snapshots", func() int64 { return l.Stats().Snapshots })
		r.Gauge("wal.snapshot_pairs", func() int64 { return l.Stats().SnapshotPairs })
		r.Gauge("wal.snapshot_bytes", func() int64 { return l.Stats().SnapshotBytes })
		r.Gauge("wal.last_snapshot_ns", func() int64 { return l.Stats().LastSnapshotNs })
		r.Gauge("wal.bytes_since_snapshot", func() int64 { return l.Stats().SinceSnapshot })
		r.Counter("wal.torn_tails", func() int64 { return l.Stats().TornTails })
		r.Counter("wal.replay_batches", func() int64 { return l.Stats().ReplayBatches })
		r.Counter("wal.replay_records", func() int64 { return l.Stats().ReplayRecords })
		r.Counter("wal.replay_snapshot_pairs", func() int64 { return l.Stats().ReplaySnapPairs })
		r.HistNS("wal.fsync", l.FsyncHist)
		r.Hist("wal.replay_batch", l.ReplayHist)
	}

	if s.store.FrontEnabled() {
		fs := s.store.FrontStats
		r.Gauge("front.entries", func() int64 { return fs().Entries })
		r.Counter("front.hits", func() int64 { return fs().Hits })
		r.Counter("front.misses", func() int64 { return fs().Misses })
		r.Counter("front.reserves", func() int64 { return fs().Reserves })
		r.Counter("front.installs", func() int64 { return fs().Installs })
		r.Counter("front.invalidates", func() int64 { return fs().Invalidates })
		r.Counter("front.evictions", func() int64 { return fs().Evictions })
	}
	return r
}

// AdminHandler returns the admin HTTP mux: /metrics (Prometheus),
// /statsz (JSON) and /debug/pprof/*. Serve it on its own listener —
// the admin surface has no authentication and belongs on a loopback or
// operations network, not the client-facing address.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		s.stats.WriteProm(w)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.stats.Statsz())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
