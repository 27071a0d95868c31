package server

// Tests of the observability layer's server surface: the frozen STATS
// key schema, the admin endpoint (/metrics, /statsz, /debug/pprof), the
// paper-facing depth acceptance check (zipf resolves strictly shallower
// than uniform), and the alloc ceiling of the instrumented pipeline.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/wire"
)

// statsKeys reduces a STATS body to its key schema: "SECTION ..." lines
// verbatim, every other line's first field.
func statsKeys(body string) []string {
	var keys []string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if strings.HasPrefix(line, "SECTION ") {
			keys = append(keys, line)
			continue
		}
		if f := strings.Fields(line); len(f) > 0 {
			keys = append(keys, f[0])
		}
	}
	return keys
}

// TestStatsTextGolden freezes the STATS reply schema. The values vary
// run to run (timings, counters) but the key names, their order and the
// section structure are an interface clients scrape — changing any of
// them is a breaking change and must update this golden deliberately.
func TestStatsTextGolden(t *testing.T) {
	histo := func(name string) []string {
		return []string{
			"SECTION histo " + name,
			name + "_count", name + "_p50", name + "_p95", name + "_p99", name + "_max",
		}
	}
	want := []string{
		"engine", "shards", "keys", "conns", "total_conns", "rejected_conns",
		"batches", "ops", "max_batch", "avg_batch",
		"gets", "sets", "dels", "expires", "scans", "errors",
		"coalesce_window", "coalesce_size_cuts", "coalesce_window_cuts", "coalesce_drain_cuts",
		"coalesce_absorbed", "coalesce_jobs",
	}
	want = append(want,
		"SECTION memory",
		"mem_max_bytes", "mem_bytes", "mem_evicted", "mem_expired", "mem_ttls",
	)
	want = append(want,
		"SECTION front",
		"front_entries", "front_hits", "front_misses", "front_conflicts",
		"front_reserves", "front_installs", "front_install_drops",
		"front_invalidates", "front_evictions",
	)
	want = append(want, histo("front_hit_ns")...)
	want = append(want, []string{
		"SECTION depth",
		"depth_src_first_slab", "depth_src_filter", "depth_src_final_slab", "depth_src_tail",
		"depth_src_front",
		"range_batches", "range_pairs_live",
	}...)
	want = append(want, histo("depth")...)
	want = append(want, "SECTION work", "work_visits", "work_comparisons", "work_moves", "work_total")
	want = append(want, "SECTION stages")
	for _, st := range []string{"parse", "queue_wait", "window_wait", "fanout", "apply", "reply", "fsync"} {
		want = append(want, histo("stage_"+st)...)
	}

	srv := New(Config{CoalesceWindow: 50 * time.Microsecond, WorkCounter: true})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	if err := cl.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Do("STATS")
	if err != nil || rep.Kind != wire.BulkReply {
		t.Fatalf("STATS = %+v, %v", rep, err)
	}
	got := statsKeys(rep.Str)
	if len(got) != len(want) {
		t.Fatalf("STATS schema has %d keys, want %d:\ngot  %v\nwant %v",
			len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("STATS key %d = %q, want %q", i, got[i], want[i])
		}
	}

	// The default server (no window, no work counter) drops exactly the
	// work section: the coalesce block is part of the one schema.
	srv2 := New(Config{})
	defer srv2.Close()
	got2 := statsKeys(srv2.statsText())
	var want2 []string
	for _, k := range want {
		if k == "SECTION work" || strings.HasPrefix(k, "work_") {
			continue
		}
		want2 = append(want2, k)
	}
	if fmt.Sprint(got2) != fmt.Sprint(want2) {
		t.Errorf("default server STATS schema:\ngot  %v\nwant %v", got2, want2)
	}

	// Disabling the front cache drops exactly its section; everything
	// else (including depth_src_front, which is part of the frozen
	// source enum) stays.
	srv3 := New(Config{FrontCache: -1})
	defer srv3.Close()
	got3 := statsKeys(srv3.statsText())
	var want3 []string
	for _, k := range want2 {
		switch {
		case k == "SECTION front", strings.HasPrefix(k, "front_"),
			strings.HasPrefix(k, "SECTION histo front_"):
			continue
		}
		want3 = append(want3, k)
	}
	if fmt.Sprint(got3) != fmt.Sprint(want3) {
		t.Errorf("front-disabled STATS schema:\ngot  %v\nwant %v", got3, want3)
	}
}

// burst drives one short zipf-or-other workload through Pipe connections.
func burst(t *testing.T, srv *Server, cfg loadgen.Config) loadgen.Report {
	t.Helper()
	rep, err := loadgen.Run(cfg, func() (net.Conn, error) { return srv.Pipe() })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestServerAdminEndpoint drives a zipf burst through the server, then
// scrapes the admin mux: /metrics must expose a non-empty depth
// histogram and stage timings, /statsz must decode with a populated
// depth histogram whose source split accounts for every lookup, and
// /debug/pprof must answer.
func TestServerAdminEndpoint(t *testing.T) {
	srv := New(Config{CoalesceWindow: 50 * time.Microsecond, WorkCounter: true})
	defer srv.Close()
	burst(t, srv, loadgen.Config{
		Conns: 4, Depth: 16, Ops: 4000,
		Workload: loadgen.Zipf, Universe: 1 << 10, ZipfS: 1.1,
		Preload: true, Seed: 1,
	})

	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	resp, err := http.Get(admin.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %v, %v", resp, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"# TYPE wsd_lookup_depth histogram",
		`wsd_lookup_depth_bucket{le="+Inf"}`,
		`wsd_lookup_source_total{source="first_slab"}`,
		"wsd_stage_apply_seconds_count",
		"wsd_ops_total",
		"wsd_work_visits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "wsd_lookup_depth_count 0\n") {
		t.Error("/metrics depth histogram empty after zipf burst")
	}

	sz, err := loadgen.ScrapeStatsz(admin.URL + "/statsz")
	if err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	if sz.Engine != "m1" || sz.Shards != srv.Shards() || sz.Keys == 0 {
		t.Errorf("/statsz header = %+v", sz)
	}
	if sz.Depth.Count == 0 {
		t.Fatal("/statsz depth histogram empty after zipf burst")
	}
	var srcTotal int64
	for _, n := range sz.DepthSources {
		srcTotal += n
	}
	if srcTotal != sz.Depth.Count {
		t.Errorf("source split %d != depth count %d (lookups must be attributed exactly once)",
			srcTotal, sz.Depth.Count)
	}
	if got := sz.Depth.Snapshot(); got.Count != sz.Depth.Count {
		t.Errorf("FromBuckets reconstruction: count %d != %d", got.Count, sz.Depth.Count)
	}
	for _, stage := range []string{"parse", "fanout", "apply", "reply", "queue_wait", "window_wait"} {
		if sz.Stages[stage].Count == 0 {
			t.Errorf("/statsz stage %q recorded nothing under coalesced load", stage)
		}
	}
	if sz.Work == nil || sz.Work.Total() == 0 {
		t.Errorf("/statsz work counters = %+v, want non-zero", sz.Work)
	}

	// A raw decode keeps the full document honest as JSON.
	raw, err := http.Get(admin.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(raw.Body).Decode(&doc); err != nil {
		t.Fatalf("/statsz not valid JSON: %v", err)
	}
	raw.Body.Close()

	pp, err := http.Get(admin.URL + "/debug/pprof/")
	if err != nil || pp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/: %v, %v", pp, err)
	}
	pp.Body.Close()
}

// TestServerDepthZipfVsUniform is the paper-facing acceptance check: the
// live depth histogram must witness the working-set property. Under a
// zipf key distribution the hot keys sit in the front segments, so the
// interval depth p50 (scraped from /statsz and diffed, exactly as
// wsload does) must be strictly shallower than under uniform keys over
// the same universe.
func TestServerDepthZipfVsUniform(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	admin := httptest.NewServer(srv.AdminHandler())
	defer admin.Close()

	base := loadgen.Config{
		Conns: 4, Depth: 32, Ops: 30000,
		Universe: 1 << 14, GetFrac: 1, Seed: 3,
	}
	pre := base
	pre.Preload = true
	pre.Workload = loadgen.Uniform
	pre.Ops = 1 // preload only matters; one op keeps the run trivial
	burst(t, srv, pre)

	scrape := func() loadgen.Statsz {
		s, err := loadgen.ScrapeStatsz(admin.URL + "/statsz")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	s0 := scrape()
	uni := base
	uni.Workload = loadgen.Uniform
	burst(t, srv, uni)
	s1 := scrape()

	zipf := base
	zipf.Workload = loadgen.Zipf
	zipf.ZipfS = 1.1
	burst(t, srv, zipf)
	s2 := scrape()

	uniD := s1.DepthInterval(s0)
	zipfD := s2.DepthInterval(s1)
	if uniD.Count == 0 || zipfD.Count == 0 {
		t.Fatalf("empty intervals: uniform n=%d zipf n=%d", uniD.Count, zipfD.Count)
	}
	up50, zp50 := uniD.Quantile(0.5), zipfD.Quantile(0.5)
	t.Logf("depth p50: uniform=%.2f zipf=%.2f (uniform mean %.2f, zipf mean %.2f)",
		up50, zp50, uniD.Mean(), zipfD.Mean())
	if zp50 >= up50 {
		t.Errorf("zipf depth p50 %.2f not strictly shallower than uniform %.2f", zp50, up50)
	}
}

// TestAllocsInstrumentedPipeline proves the telemetry layer keeps the
// hot path's allocation ceiling: with depth histograms and stage timers
// recording (they are always on), a warm depth-8 GET pipeline stays
// within the same ceiling as TestAllocsServerPipeRoundTrip, and the
// telemetry demonstrably recorded the traffic. Skipped under -race
// (instrumentation inflates counts).
func TestAllocsInstrumentedPipeline(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	srv := New(Config{})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	const depth = 8
	keys := [depth]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := cl.Set(keys[i], "value"); err != nil {
			t.Fatal(err)
		}
	}
	pipeline := func() {
		for _, k := range keys {
			if err := cl.Send("GET", k); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for range keys {
			if r, err := cl.Recv(); err != nil || r.Kind != wire.BulkReply {
				t.Fatalf("reply %+v, err %v", r, err)
			}
		}
	}
	pipeline() // warm
	before := srv.Obs().DepthSnapshot().Depth.Count
	const ceiling = 4 // same as the uninstrumented ceiling (measured 0 at GOMAXPROCS 1/2/4): telemetry must be free
	if n := testing.AllocsPerRun(50, pipeline); n > ceiling {
		t.Errorf("instrumented depth-%d pipeline: %.1f allocs, ceiling %d", depth, n, ceiling)
	}
	after := srv.Obs().DepthSnapshot()
	if after.Depth.Count <= before {
		t.Error("depth histogram did not record during the measured pipelines")
	}
	stages := srv.Obs().Stages().Snapshot()
	for _, st := range []int{0 /* parse */, 5 /* reply */} {
		if stages[st].Count == 0 {
			t.Errorf("stage %d recorded nothing", st)
		}
	}
}
