package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"repro/internal/loadgen"
	"repro/internal/obs"
)

// statsz is the part of wsd's /statsz document the traced pass reads:
// what wsload already decodes (loadgen.Statsz: memory, depth, stages,
// work, front) plus the blocks only bench needs. Every counter is
// cumulative; the pass scrapes at both ends of its window and reports
// differences.
type statsz struct {
	loadgen.Statsz
	Server struct {
		Batches int64 `json:"batches"`
		Ops     int64 `json:"ops"`
		Gets    int64 `json:"gets"`
		Sets    int64 `json:"sets"`
		Scans   int64 `json:"scans"`
	} `json:"server"`
	Coalesce *struct {
		Batches int64 `json:"batches"`
		Ops     int64 `json:"ops"`
	} `json:"coalesce"`
	Range struct {
		PairsLive    int64 `json:"pairs_live"`
		PairsSnap    int64 `json:"pairs_snap"`
		PairsOverlay int64 `json:"pairs_overlay"`
	} `json:"range"`
	WAL *struct {
		Bytes int64 `json:"bytes"`
		Syncs int64 `json:"syncs"`
	} `json:"wal"`
}

func scrapeStatsz(admin string) (*statsz, error) {
	resp, err := http.Get("http://" + admin + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("statsz: %s", resp.Status)
	}
	var s statsz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	return &s, nil
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// traceMetrics turns two scrapes around one traced round into the
// trace.* rows. recoveryS and untracedOps (ops/s of the same workload
// with tracing off) come from the caller.
func traceMetrics(a, z *statsz, rs roundStats, recoveryS, untracedOps float64) metrics {
	out := metrics{}
	put := func(name string, v float64, unit string, n int64) {
		out["trace."+name] = metric{Value: v, Unit: unit, N: n}
	}
	cmds := float64(z.Server.Gets + z.Server.Sets + z.Server.Scans - a.Server.Gets - a.Server.Sets - a.Server.Scans)
	kcmds := cmds / 1000

	var sumAll, sumP50 float64
	stage := map[string]obs.HistSnapshot{}
	for _, s := range traceStages {
		h := z.StageInterval(a.Statsz, s)
		stage[s] = h
		sumAll += float64(h.Sum)
	}
	for _, s := range traceStages {
		h := stage[s]
		p50 := h.Quantile(0.5) / 1000
		sumP50 += p50
		put(s+"_p50_us", p50, "us", h.Count)
		put(s+"_share", ratio(float64(h.Sum), sumAll), "ratio", h.Count)
	}
	// What the client waited for one pipeline, less what the server's
	// stage clocks explain: socket hops, scheduling, and whatever the
	// stages do not cover. May be negative where stages overlap.
	put("unaccounted_us", rs.batchP50/1000-sumP50, "us", rs.ops)

	var hits, misses int64
	if z.Front != nil && a.Front != nil {
		hits, misses = z.Front.Hits-a.Front.Hits, z.Front.Misses-a.Front.Misses
	}
	put("front_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio", hits+misses)
	batches := z.Server.Batches - a.Server.Batches
	put("server_avg_batch", ratio(float64(z.Server.Ops-a.Server.Ops), float64(batches)), "count", batches)
	var cb, co int64
	if z.Coalesce != nil && a.Coalesce != nil {
		cb, co = z.Coalesce.Batches-a.Coalesce.Batches, z.Coalesce.Ops-a.Coalesce.Ops
	}
	put("coalesce_avg_batch", ratio(float64(co), float64(cb)), "count", cb)
	depth := z.DepthInterval(a.Statsz)
	put("depth_p50", depth.Quantile(0.5), "count", depth.Count)
	work := z.Work.Total() - a.Work.Total()
	put("work_per_op", ratio(float64(work), cmds), "count", int64(cmds))
	var syncs, wbytes int64
	if z.WAL != nil && a.WAL != nil {
		syncs, wbytes = z.WAL.Syncs-a.WAL.Syncs, z.WAL.Bytes-a.WAL.Bytes
	}
	put("wal_fsyncs_per_kop", ratio(float64(syncs), kcmds), "count", syncs)
	put("wal_bytes_per_op", ratio(float64(wbytes), cmds), "B", int64(cmds))
	put("mem_evicted_per_kop", ratio(float64(z.Memory.Evicted-a.Memory.Evicted), kcmds), "count", z.Memory.Evicted-a.Memory.Evicted)
	put("mem_expired_per_kop", ratio(float64(z.Memory.Expired-a.Memory.Expired), kcmds), "count", z.Memory.Expired-a.Memory.Expired)
	put("mem_over_budget", ratio(float64(z.Memory.Bytes), float64(z.Memory.MaxBytes)), "ratio", 1)
	scans := z.Server.Scans - a.Server.Scans
	pairs := z.Range.PairsLive + z.Range.PairsSnap + z.Range.PairsOverlay -
		a.Range.PairsLive - a.Range.PairsSnap - a.Range.PairsOverlay
	put("range_pairs_per_scan", ratio(float64(pairs), float64(scans)), "count", scans)
	put("recovery_s", recoveryS, "s", 1)
	put("overhead_frac", 1-ratio(rs.opsPerS, untracedOps), "ratio", rs.ops)
	return out
}

// writeSpans writes the client-side spans kept in memory during the
// traced pass, one JSON object per line.
func writeSpans(path string, byWorkload map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, w := range standingWorkloads(0) {
		for _, sp := range byWorkload[w.Name] {
			line := struct {
				Workload string `json:"workload"`
				span
			}{w.Name, sp}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
