package server

// Tests of the observability layer's server surface: the one stats
// schema across STATS, /statsz and /metrics, the /statsz paths the
// standing benchmark decodes, the admin endpoint (/debug/pprof too), the
// paper-facing depth acceptance check (zipf resolves strictly shallower
// than uniform), and the alloc ceiling of the instrumented pipeline.

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/wal"
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

// adminGet fetches one admin endpoint's body.
func adminGet(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.AdminHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: %d", path, rec.Code)
	}
	return rec.Body.Bytes()
}

// statszLeaves walks a /statsz document into its leaf paths, true for
// a histogram (an object carrying p50), which is one leaf.
func statszLeaves(prefix string, doc map[string]any, out map[string]bool) {
	for k, v := range doc {
		path := prefix + k
		obj, ok := v.(map[string]any)
		switch {
		case !ok:
			out[path] = false
		case obj["p50"] != nil:
			out[path] = true
		default:
			statszLeaves(path+".", obj, out)
		}
	}
}

// checkSurfaces holds the three stats surfaces of srv to one schema:
// every /statsz leaf has exactly one STATS key and one /metrics family
// under obs.Names, and no surface carries a name the others lack. It
// returns the /statsz leaves and the STATS body.
func checkSurfaces(t *testing.T, srv *Server) (map[string]bool, string) {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(adminGet(t, srv, "/statsz"), &doc); err != nil {
		t.Fatalf("/statsz not valid JSON: %v", err)
	}
	leaves := map[string]bool{}
	statszLeaves("", doc, leaves)

	rep, err := pipeClient(t, srv).Do("STATS")
	if err != nil || rep.Kind != wire.BulkReply {
		t.Fatalf("STATS = %+v, %v", rep, err)
	}
	stats := map[string]bool{} // key -> is a histogram
	lines := strings.Split(strings.TrimSuffix(rep.Str, "\n"), "\n")
	for i := 0; i < len(lines); i++ {
		if h, ok := strings.CutPrefix(lines[i], "SECTION histo "); ok {
			stats[h] = true
			for j, q := range []string{"count", "p50", "p95", "p99", "max"} {
				if i+1+j >= len(lines) || !strings.HasPrefix(lines[i+1+j], h+"_"+q+" ") {
					t.Fatalf("STATS histo %s: line %d is not %s_%s", h, j, h, q)
				}
			}
			i += 5
		} else if !strings.HasPrefix(lines[i], "SECTION ") {
			stats[strings.Fields(lines[i])[0]] = false
		}
	}

	families := map[string]string{} // Prometheus name -> TYPE
	for _, line := range strings.Split(string(adminGet(t, srv, "/metrics")), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			families[f[2]] = f[3]
		}
	}

	scalarKinds := map[obs.Kind]string{obs.Counter: "counter", obs.Gauge: "gauge", obs.Info: "gauge"}
	histKinds := map[obs.Kind]string{obs.Hist: "histogram", obs.HistNS: "histogram"}
	seenKey, seenProm := map[string]string{}, map[string]bool{}
	for path, hist := range leaves {
		key, _ := obs.Names("wsd", path, obs.Gauge)
		if other, dup := seenKey[key]; dup {
			t.Errorf("/statsz %s and %s share the STATS key %s", path, other, key)
		}
		seenKey[key] = path
		if isHist, ok := stats[key]; !ok || isHist != hist {
			t.Errorf("/statsz %s (histogram %v): STATS key %s missing or of another kind", path, hist, key)
		}
		kinds := scalarKinds
		if hist {
			kinds = histKinds
		}
		match := map[string]bool{}
		for k, typ := range kinds {
			if _, prom := obs.Names("wsd", path, k); families[prom] == typ {
				match[prom] = true
			}
		}
		if len(match) != 1 {
			t.Errorf("/statsz %s: %d /metrics families under the naming rule, want 1", path, len(match))
		}
		for prom := range match {
			seenProm[prom] = true
		}
	}
	for key := range stats {
		if _, ok := seenKey[key]; !ok {
			t.Errorf("STATS key %s has no /statsz leaf", key)
		}
	}
	for prom := range families {
		if !seenProm[prom] {
			t.Errorf("/metrics family %s has no /statsz leaf", prom)
		}
	}
	return leaves, rep.Str
}

// TestStatsTextGolden holds the stats schema on four servers (default,
// front off, work counter, and WAL + work counter + front, the full
// configuration): the three surfaces agree name for name (checkSurfaces),
// the optional blocks appear exactly when configured, and the full
// configuration's STATS keys, their order and sections match
// testdata/stats_keys.golden. Values vary run to run; the names are an
// interface clients scrape, so changing one must update the golden
// deliberately.
func TestStatsTextGolden(t *testing.T) {
	full := func(t *testing.T) *Server {
		log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever, Logf: t.Logf})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		return newTestServer(t, Config{WAL: log, SnapshotBytes: -1, WorkCounter: true})
	}
	for _, tc := range []struct {
		name   string
		srv    func(t *testing.T) *Server
		blocks string // the optional blocks present, in order
	}{
		{"default", func(t *testing.T) *Server { return newTestServer(t, Config{}) }, "front"},
		{"front_off", func(t *testing.T) *Server { return newTestServer(t, Config{FrontCache: -1}) }, ""},
		{"work", func(t *testing.T) *Server { return newTestServer(t, Config{WorkCounter: true}) }, "work front"},
		{"full", full, "work wal front"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tc.srv(t)
			if err := pipeClient(t, srv).Set("k", "v"); err != nil {
				t.Fatal(err)
			}
			leaves, body := checkSurfaces(t, srv)
			var blocks []string
			for _, b := range []string{"work", "wal", "front"} {
				for path := range leaves {
					if strings.HasPrefix(path, b+".") {
						blocks = append(blocks, b)
						break
					}
				}
			}
			if got := strings.Join(blocks, " "); got != tc.blocks {
				t.Errorf("optional blocks = %q, want %q", got, tc.blocks)
			}
			if tc.name != "full" {
				return
			}
			want, err := os.ReadFile("testdata/stats_keys.golden")
			if err != nil {
				t.Fatal(err)
			}
			got := strings.Join(statsKeys(body), "\n") + "\n"
			if got != string(want) {
				t.Errorf("STATS keys differ from testdata/stats_keys.golden; got:\n%s", got)
			}
		})
	}
}

// benchStatsz copies bench/trace.go's statsz type: the part of /statsz
// the standing benchmark's traced pass decodes (loadgen.Statsz plus the
// server, coalesce, range and wal blocks). bench/ is its own module and
// changes on its own schedule, so this copy is what holds the server to
// the paths it reads.
type benchStatsz struct {
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
		PairsLive int64 `json:"pairs_live"`
	} `json:"range"`
	WAL *struct {
		Bytes int64 `json:"bytes"`
		Syncs int64 `json:"syncs"`
	} `json:"wal"`
}

// TestStatszBenchCompat drives SET/GET/SCAN/SETEX traffic through a
// WAL-backed, work-counting, front-cached server under a byte budget
// and a fake TTL clock, then decodes /statsz as bench does: every field
// bench reads must be present and non-zero.
func TestStatszBenchCompat(t *testing.T) {
	log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	srv := newTestServer(t, Config{WAL: log, SnapshotBytes: -1, WorkCounter: true,
		MaxBytes: 16 << 10, Clock: now.Load})
	c := pipeClient(t, srv)
	val := strings.Repeat("v", 50)
	for i := 0; i < 300; i++ { // well past the budget: evictions
		if err := c.Set(fmt.Sprintf("k%03d", i), val); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			for range 3 { // before any eviction: a miss, then front hits
				if _, _, err := c.Get("k000"); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if r, err := c.Do("SCAN", "k", "l", "100"); err != nil || r.Kind != wire.ArrayReply {
		t.Fatalf("SCAN = %+v, %v", r, err)
	}
	// Empty the map, so no eviction takes the TTL keys below.
	for i := 0; i < 300; i++ {
		if _, err := c.Del(fmt.Sprintf("k%03d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, kv := range [][2]string{{"short", "1"}, {"long", "100000"}} {
		if r, err := c.Do("SETEX", kv[0], kv[1], "v"); err != nil || r.Kind == wire.ErrorReply {
			t.Fatalf("SETEX %s = %+v, %v", kv[0], r, err)
		}
	}
	now.Add(int64(5 * time.Second))
	if err := c.Set("after", "v"); err != nil { // the commit boundary sweeps "short"
		t.Fatal(err)
	}

	var sz benchStatsz
	if err := json.Unmarshal(adminGet(t, srv, "/statsz"), &sz); err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	m := sz.Memory
	for name, v := range map[string]int64{
		"server.batches": sz.Server.Batches, "server.ops": sz.Server.Ops,
		"server.gets": sz.Server.Gets, "server.sets": sz.Server.Sets, "server.scans": sz.Server.Scans,
		"range.pairs_live": sz.Range.PairsLive,
		"memory.max_bytes": m.MaxBytes, "memory.bytes": m.Bytes, "memory.evicted": m.Evicted,
		"memory.expired": m.Expired, "memory.ttls": m.TTLs,
		"depth.count": sz.Depth.Count,
	} {
		if v == 0 {
			t.Errorf("/statsz %s = 0", name)
		}
	}
	if sz.Coalesce == nil || sz.Coalesce.Batches == 0 || sz.Coalesce.Ops == 0 {
		t.Errorf("/statsz coalesce = %+v", sz.Coalesce)
	}
	if sz.WAL == nil || sz.WAL.Bytes == 0 || sz.WAL.Syncs == 0 {
		t.Errorf("/statsz wal = %+v", sz.WAL)
	}
	// bench reads work as Total(), which is the visits.
	if w := sz.Work; w == nil || w.Visits == 0 {
		t.Errorf("/statsz work = %+v", w)
	}
	if f := sz.Front; f == nil || f.Hits == 0 || f.Misses == 0 {
		t.Errorf("/statsz front = %+v", f)
	}
	for i := range obs.NumStages {
		if st := obs.Stage(i).String(); sz.Stages[st].Count == 0 {
			t.Errorf("/statsz stages.%s recorded nothing", st)
		}
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
		"# TYPE wsd_depth histogram",
		`wsd_depth_bucket{le="+Inf"}`,
		"wsd_depth_sources_first_slab_total",
		"wsd_stages_apply_seconds_count",
		"wsd_server_ops_total",
		"wsd_work_visits_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(metrics, "wsd_depth_count 0\n") {
		t.Error("/metrics depth histogram empty after zipf burst")
	}

	sz, err := loadgen.ScrapeStatsz(admin.URL + "/statsz")
	if err != nil {
		t.Fatalf("/statsz: %v", err)
	}
	if sz.Shards != srv.Shards() || sz.Keys == 0 {
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
