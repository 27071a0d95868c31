// Admin endpoint: an HTTP mux exposing the server's telemetry for
// scraping and profiling, served on a separate listener from the wire
// protocol (wsd -admin). Three surfaces over the same snapshots that
// back STATS:
//
//   - /metrics  — Prometheus text exposition: the merged working-set
//     depth histogram, per-source resolution counters, the batch-stage
//     duration histograms (in seconds), and the server's scalar
//     counters.
//   - /statsz   — JSON with full (trimmed) histogram buckets, so a
//     client can reconstruct snapshots with obs.FromBuckets, diff two
//     scrapes with HistSnapshot.Sub, and quantile the interval — this
//     is how wsload reports server-side percentiles per run.
//   - /debug/pprof/* — the standard Go profiles.
//
// Reading telemetry never locks the data path: every histogram read is
// an atomic snapshot.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"

	pws "repro"
	"repro/internal/coalesce"
	"repro/internal/frontcache"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/wal"
)

// statszHist is one histogram in the /statsz reply: scalar summary plus
// the trimmed bucket counts (log-bucketed, bucket i covers
// [2^(i-1), 2^i)) from which obs.FromBuckets reconstructs the snapshot.
type statszHist struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

func toStatszHist(h obs.HistSnapshot) statszHist {
	return statszHist{
		Count:   h.Count,
		Sum:     h.Sum,
		Max:     h.Max,
		P50:     h.Quantile(0.50),
		P95:     h.Quantile(0.95),
		P99:     h.Quantile(0.99),
		Buckets: h.TrimmedBuckets(),
	}
}

// statszRange is the range-serving tally: batches served and pairs
// emitted.
type statszRange struct {
	Batches   int64 `json:"batches"`
	PairsLive int64 `json:"pairs_live"`
}

// statszWAL is the durability block of the /statsz reply: the WAL's
// scalar counters plus the fsync-duration and replay-batch-size
// histograms (nanoseconds and records respectively).
type statszWAL struct {
	wal.Stats
	Fsync       statszHist `json:"fsync"`
	ReplayBatch statszHist `json:"replay_batch"`
}

// statszFront is the hot-key front cache block of the /statsz reply:
// the merged per-shard counters plus the cached-GET latency histogram
// (nanoseconds). Absent when the front cache is disabled.
type statszFront struct {
	frontcache.Stats
	HitNS statszHist `json:"hit_ns"`
}

// statszReply is the /statsz JSON document.
type statszReply struct {
	Engine       string                `json:"engine"`
	Shards       int                   `json:"shards"`
	Keys         int                   `json:"keys"`
	Server       Stats                 `json:"server"`
	Memory       pws.MemStats          `json:"memory"`
	Coalesce     coalesce.Stats        `json:"coalesce"`
	Front        *statszFront          `json:"front,omitempty"`
	Depth        statszHist            `json:"depth"`
	DepthSources map[string]int64      `json:"depth_sources"`
	Range        statszRange           `json:"range"`
	Stages       map[string]statszHist `json:"stages"`
	Work         *metrics.Snapshot     `json:"work,omitempty"`
	WAL          *statszWAL            `json:"wal,omitempty"`
}

// statsz builds the /statsz reply document.
func (s *Server) statsz() statszReply {
	r := statszReply{
		Engine:   "m1", // the only engine; the field is part of the schema
		Shards:   s.store.Shards(),
		Keys:     s.store.Len(),
		Server:   s.Stats(),
		Memory:   s.store.Mem(),
		Coalesce: s.CoalesceStats(),
	}
	if fs, ok := s.Front(); ok {
		r.Front = &statszFront{Stats: fs, HitNS: toStatszHist(fs.HitNS)}
	}
	es := s.obsm.DepthSnapshot()
	r.Depth = toStatszHist(es.Depth)
	r.DepthSources = make(map[string]int64, obs.NumDepthSources)
	for i := 0; i < obs.NumDepthSources; i++ {
		r.DepthSources[obs.DepthSource(i).String()] = es.Sources[i]
	}
	r.Range = statszRange{Batches: es.RangeBatches, PairsLive: es.RangePairsLive}
	ss := s.obsm.Stages().Snapshot()
	r.Stages = make(map[string]statszHist, obs.NumStages)
	for i := range ss {
		r.Stages[obs.Stage(i).String()] = toStatszHist(ss[i])
	}
	if s.work != nil {
		ws := s.work.Snapshot()
		r.Work = &ws
	}
	if ws, ok := s.WALStats(); ok {
		r.WAL = &statszWAL{
			Stats:       ws,
			Fsync:       toStatszHist(s.wal.FsyncHist()),
			ReplayBatch: toStatszHist(s.wal.ReplayHist()),
		}
	}
	return r
}

// AdminHandler returns the admin HTTP mux: /metrics (Prometheus),
// /statsz (JSON) and /debug/pprof/*. Serve it on its own listener —
// the admin surface has no authentication and belongs on a loopback or
// operations network, not the client-facing address.
func (s *Server) AdminHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.serveMetrics)
	mux.HandleFunc("/statsz", s.serveStatsz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) serveStatsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.statsz())
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	st := s.Stats()
	scalar := func(name, typ string, v int64) {
		fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", name, typ, name, v)
	}
	writeGauge := func(name string, v int64) { scalar(name, "gauge", v) }
	writeCounter := func(name string, v int64) { scalar(name, "counter", v) }
	writeGauge("wsd_keys", int64(s.store.Len()))
	writeGauge("wsd_shards", int64(s.store.Shards()))
	writeGauge("wsd_conns", st.ActiveConns)
	writeCounter("wsd_conns_total", st.TotalConns)
	writeCounter("wsd_conns_rejected_total", st.RejectedConns)
	writeCounter("wsd_batches_total", st.Batches)
	writeCounter("wsd_ops_total", st.Ops)
	writeGauge("wsd_batch_max", st.MaxBatch)
	writeCounter("wsd_gets_total", st.Gets)
	writeCounter("wsd_sets_total", st.Sets)
	writeCounter("wsd_dels_total", st.Dels)
	writeCounter("wsd_expires_total", st.Expires)
	writeCounter("wsd_scans_total", st.Scans)
	writeCounter("wsd_errors_total", st.Errors)
	ms := s.store.Mem()
	writeGauge("wsd_mem_max_bytes", ms.MaxBytes)
	writeGauge("wsd_mem_bytes", ms.Bytes)
	writeGauge("wsd_mem_ttls", ms.TTLs)
	writeCounter("wsd_evicted_total", ms.Evicted)
	writeCounter("wsd_expired_total", ms.Expired)
	cs := s.CoalesceStats()
	writeCounter("wsd_coalesce_size_cuts_total", cs.SizeCuts)
	writeCounter("wsd_coalesce_window_cuts_total", cs.WindowCuts)
	writeCounter("wsd_coalesce_drain_cuts_total", cs.DrainCuts)
	writeCounter("wsd_coalesce_absorbed_total", cs.Absorbed)
	writeCounter("wsd_coalesce_jobs_total", cs.Jobs)
	if fs, ok := s.Front(); ok {
		writeGauge("wsd_front_entries", fs.Entries)
		writeCounter("wsd_front_hits_total", fs.Hits)
		writeCounter("wsd_front_misses_total", fs.Misses)
		writeCounter("wsd_front_conflicts_total", fs.Conflicts)
		writeCounter("wsd_front_reserves_total", fs.Reserves)
		writeCounter("wsd_front_installs_total", fs.Installs)
		writeCounter("wsd_front_install_drops_total", fs.InstallDrops)
		writeCounter("wsd_front_invalidates_total", fs.Invalidates)
		writeCounter("wsd_front_evictions_total", fs.Evictions)
		// Hit latency is nanoseconds; 1e-9 emits Prometheus base seconds.
		fs.HitNS.WriteProm(w, "wsd_front_hit_seconds", "", 1e-9)
	}
	if s.work != nil {
		ws := s.work.Snapshot()
		writeCounter("wsd_work_visits_total", ws.Work)
		writeCounter("wsd_work_comparisons_total", ws.Comparisons)
		writeCounter("wsd_work_moves_total", ws.Moves)
	}
	es := s.obsm.DepthSnapshot()
	// The depth histogram's unit is a segment index, already integral:
	// scale 1 keeps the bucket bounds exact.
	es.Depth.WriteProm(w, "wsd_lookup_depth", "", 1)
	fmt.Fprintf(w, "# TYPE wsd_lookup_source_total counter\n")
	for i := 0; i < obs.NumDepthSources; i++ {
		fmt.Fprintf(w, "wsd_lookup_source_total{source=%q} %d\n",
			obs.DepthSource(i).String(), es.Sources[i])
	}
	ss := s.obsm.Stages().Snapshot()
	for i := range ss {
		// Stage durations are nanoseconds; 1e-9 emits Prometheus base
		// seconds.
		ss[i].WriteProm(w, "wsd_stage_"+obs.Stage(i).String()+"_seconds", "", 1e-9)
	}
	if ws, ok := s.WALStats(); ok {
		writeGauge("wsd_wal_seq", int64(ws.Seq))
		writeGauge("wsd_wal_snap_seq", int64(ws.SnapSeq))
		writeCounter("wsd_wal_batches_total", ws.Batches)
		writeCounter("wsd_wal_records_total", ws.Records)
		writeCounter("wsd_wal_bytes_total", ws.Bytes)
		writeCounter("wsd_wal_syncs_total", ws.Syncs)
		writeCounter("wsd_wal_sync_errors_total", ws.SyncErrors)
		writeCounter("wsd_wal_rotations_total", ws.Rotations)
		writeCounter("wsd_wal_snapshots_total", ws.Snapshots)
		writeCounter("wsd_wal_torn_tails_total", ws.TornTails)
		writeCounter("wsd_wal_replay_batches_total", ws.ReplayBatches)
		writeCounter("wsd_wal_replay_records_total", ws.ReplayRecords)
		s.wal.FsyncHist().WriteProm(w, "wsd_wal_fsync_seconds", "", 1e-9)
	}
}
