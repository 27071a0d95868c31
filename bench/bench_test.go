package main

import (
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// testRig builds wsd once per test binary and hands every test its own
// work and output directories.
var (
	buildOnce sync.Once
	builtBin  string
	buildErr  error
)

func testRig(t *testing.T) (*rig, *benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "bench-test-wsd")
		if err != nil {
			buildErr = err
			return
		}
		builtBin, buildErr = buildWsd(root, dir)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	procs := min(runtime.NumCPU(), 4)
	return &rig{bin: builtBin, procs: procs, seed: 1, workDir: t.TempDir(), outDir: t.TempDir()}, spec
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtBin != "" {
		os.RemoveAll(filepath.Dir(builtBin))
	}
	os.Exit(code)
}

// TestSmokeEmitsEveryName runs the whole matrix at toy scale (1 s
// rounds, universes of a few thousand keys) and checks the contract
// between the code and BENCHMARK.json: every name listed there is
// measured, with its unit, exactly once per workload, and nothing is
// measured that is not listed.
func TestSmokeEmitsEveryName(t *testing.T) {
	r, spec := testRig(t)
	ws := standingWorkloads(7)
	doc, _, err := matrix(r, ws, map[string]bool{"wire": true, "frontcache": true, "coalesce": true,
		"server": true, "shard": true, "core": true, "twothree": true, "wal": true}, time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]specMetric{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if _, dup := listed[m.Name]; dup {
			t.Errorf("BENCHMARK.json lists %s twice", m.Name)
		}
		listed[m.Name] = m
	}
	seen := map[string]bool{}
	check := func(where, name string, m metric, ok bool) {
		sm, isListed := listed[name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", where, name)
		case !isListed:
			t.Errorf("%s: %s emitted but not in BENCHMARK.json", where, name)
		case m.Unit != sm.Unit:
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", where, name, m.Unit, sm.Unit)
		}
		seen[name] = true
	}
	for _, w := range ws {
		if len(doc.E2E[w.Name]) != len(e2eNames) || len(doc.Trace[w.Name]) != len(traceNames()) {
			t.Errorf("%s: %d end-to-end and %d trace metrics, want %d and %d", w.Name,
				len(doc.E2E[w.Name]), len(doc.Trace[w.Name]), len(e2eNames), len(traceNames()))
		}
		for _, name := range e2eNames {
			m, ok := doc.E2E[w.Name][name]
			check(w.Name, name, m, ok)
		}
		for _, name := range traceNames() {
			m, ok := doc.Trace[w.Name][name]
			check(w.Name, name, m, ok)
		}
		if got := doc.E2E[w.Name]["fail_frac"].Value; got != 0 {
			t.Errorf("%s: fail_frac %v, oracle %v", w.Name, got, doc.Oracle[w.Name])
		}
		if got := doc.E2E[w.Name]["ops_per_s"].Value; got <= 0 {
			t.Errorf("%s: ops_per_s %v", w.Name, got)
		}
	}
	if len(doc.Layers) != len(probeNames) {
		t.Errorf("%d probe metrics, want %d", len(doc.Layers), len(probeNames))
	}
	for _, name := range probeNames {
		m, ok := doc.Layers[name]
		check("probes", name, m, ok)
	}
	for name := range listed {
		if !seen[name] {
			t.Errorf("BENCHMARK.json lists %s, which bench does not emit", name)
		}
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range standingWorkloads(0) {
		have = append(have, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, bench has %v", names, have)
	}
}

// fakeServer speaks the wire protocol over one connection from an
// in-memory map, honestly unless a fault is switched on.
type fakeServer struct {
	staleReads   bool // GET returns the first value a key ever had
	wrongKey     bool // GET returns another key's value
	unsortedScan bool // SCAN pages come back in descending order
}

func (f *fakeServer) serve(nc net.Conn) {
	defer nc.Close()
	rd, wr := wire.NewReader(nc), wire.NewWriter(nc)
	first, last := map[string]string{}, map[string]string{}
	for {
		cmd, err := rd.ReadCommand()
		if err != nil {
			return
		}
		switch cmd.Name {
		case "SET":
			k, v := strings.Clone(cmd.Args[0]), strings.Clone(cmd.Args[1])
			if _, ok := first[k]; !ok {
				first[k] = v
			}
			last[k] = v
			wr.WriteSimple("OK")
		case "GET":
			k := cmd.Args[0]
			src := last
			if f.staleReads {
				src = first
			}
			if f.wrongKey {
				idx, _ := strconv.Atoi(k[1:])
				k = keyOf(idx ^ 1)
			}
			if v, ok := src[k]; ok {
				wr.WriteBulk(v)
			} else {
				wr.WriteNil()
			}
		case "SCAN":
			var keys []string
			for k := range last {
				if k >= cmd.Args[0] && k < cmd.Args[1] {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			keys = keys[:min(len(keys), scanPage)]
			if f.unsortedScan {
				sort.Sort(sort.Reverse(sort.StringSlice(keys)))
			}
			wr.WriteArrayHeader(1 + 2*len(keys))
			wr.WriteBulk("")
			for _, k := range keys {
				wr.WriteBulk(k)
				wr.WriteBulk(last[k])
			}
		}
		if rd.Buffered() == 0 {
			wr.Flush()
			rd.Reset()
		}
	}
}

// TestOracle drives one client against the fake server: an honest
// server passes, and each fault is counted as failed operations of its
// own kind.
func TestOracle(t *testing.T) {
	w := &workload{Name: "oracle", Depth: 4, Universe: 2048, Dist: distUniform, GetPct: 50, ScanPct: 10}
	for _, tc := range []struct {
		name string
		srv  fakeServer
		want violation
	}{
		{"honest", fakeServer{}, vNone},
		{"stale seq", fakeServer{staleReads: true}, vStaleRead},
		{"wrong key", fakeServer{wrongKey: true}, vWrongKey},
		{"unsorted scan", fakeServer{unsortedScan: true}, vBadScan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, sv := net.Pipe()
			go tc.srv.serve(sv)
			defer cl.Close()
			c := newClient(0, 1, w, &wireConn{nc: cl, r: wire.NewReader(cl), w: wire.NewWriter(cl)}, nil, 1)
			if err := c.preload(); err != nil {
				t.Fatal(err)
			}
			var tl tally
			c.run(time.Now(), 0, 20000, &tl)
			if tl.attempted < 20000 {
				t.Fatalf("attempted %d ops, want 20000", tl.attempted)
			}
			if tc.want == vNone {
				if tl.failed != 0 {
					t.Fatalf("honest server: %d failed ops %v", tl.failed, tl.viol)
				}
				return
			}
			if tl.viol[tc.want] == 0 || tl.failed < tl.viol[tc.want] {
				t.Fatalf("want %s violations counted as failed, got failed=%d viol=%v",
					violationNames[tc.want], tl.failed, tl.viol)
			}
		})
	}
}

// TestWatchdog stalls (SIGSTOP) and kills (SIGKILL) the child mid-round:
// the stalled round ends at the watchdog with a goroutine dump saved, the
// killed one well before it, and both count their unanswered operations
// as failed without hanging bench.
func TestWatchdog(t *testing.T) {
	r, _ := testRig(t)
	w := standingWorkloads(7)[0]
	const dur = time.Second
	for _, tc := range []struct {
		name     string
		sig      syscall.Signal
		min, max time.Duration
	}{
		{"stalled", syscall.SIGSTOP, 2 * dur, 2*dur + 5*time.Second},
		{"killed", syscall.SIGKILL, 0, dur},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := newBed(r, w, false)
			if err != nil {
				t.Fatal(err)
			}
			defer b.close()
			time.AfterFunc(dur/4, func() { b.srv.cmd.Process.Signal(tc.sig) })
			t0 := time.Now()
			rs := b.round(dur, 0, false)
			took := time.Since(t0)
			if rs.aborted == "" || rs.failed == 0 || rs.viol[vUnanswered] == 0 {
				t.Fatalf("round not aborted with unanswered ops: aborted=%q failed=%d viol=%v", rs.aborted, rs.failed, rs.viol)
			}
			if took < tc.min || took > tc.max {
				t.Fatalf("round took %v, want within [%v, %v]", took, tc.min, tc.max)
			}
			if rs.ops == 0 {
				t.Fatalf("no operation completed before the fault")
			}
			// A later round against the dead server fails fast.
			if again := b.round(dur, 0, false); again.failed == 0 || again.seconds > 0.5 {
				t.Fatalf("round after the fault: failed=%d in %.2f s", again.failed, again.seconds)
			}
			if tc.sig == syscall.SIGSTOP {
				dumps, _ := filepath.Glob(filepath.Join(r.outDir, "hang-*.log"))
				if len(dumps) != 1 {
					t.Fatalf("want one hang dump in %s, got %v", r.outDir, dumps)
				}
				raw, _ := os.ReadFile(dumps[0])
				if !strings.Contains(string(raw), "goroutine ") {
					t.Fatalf("hang dump holds no goroutine stacks:\n%s", raw)
				}
			}
		})
	}
}

// TestVerdict checks the three verdicts under a relative bound and the
// absolute rule.
func TestVerdict(t *testing.T) {
	m := func(rounds ...float64) metric { return metric{Value: median(rounds), Rounds: rounds} }
	for _, tc := range []struct {
		a, b metric
		g    gate
		want string
	}{
		{m(100, 101, 102), m(100, 103, 104), gate{"higher", 0.10}, "ok"},
		{m(100, 101, 102), m(80, 81, 82), gate{"higher", 0.10}, "regressed"},
		{m(100, 101, 102), m(120, 121, 122), gate{"higher", 0.10}, "ok"},
		{m(100, 101, 102), m(120, 121, 122), gate{"lower", 0.10}, "regressed"},
		{m(100, 101, 130), m(80, 81, 82), gate{"higher", 0.10}, "unresolved"},
		{m(100), m(80), gate{"higher", 0.10}, "regressed"}, // one sample a side: no spread to hide behind
		{m(0, 0, 0), m(0, 0.001, 0.001), gate{"lower", 0}, "regressed"},
		{m(0.01, 0.01, 0.01), m(0, 0, 0), gate{"lower", 0}, "ok"},
	} {
		if _, got := verdict(tc.a, tc.b, tc.g); got != tc.want {
			t.Errorf("verdict(%v, %v, %+v) = %s, want %s", tc.a.Rounds, tc.b.Rounds, tc.g, got, tc.want)
		}
	}
}

// TestCompareSides compares sets of hand-made result documents: a
// correctness regression from zero is flagged, write amplification is
// gated on the durable workload only, and a metric with one value per
// document takes its spread from the documents of its side.
func TestCompareSides(t *testing.T) {
	spec, err := parseSpec([]byte(`{"end_to_end": [{"name": "server_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, rss, failFrac, walAmp float64) string {
		doc := resultDoc{E2E: map[string]metrics{}}
		for _, w := range []string{"zipf_read", "recency_durable"} {
			doc.E2E[w] = metrics{
				"server_rss_mb":           {Value: rss, Unit: "MiB", N: 1},
				"fail_frac":               {Value: failFrac, Unit: "ratio", N: 1000},
				"wal_bytes_per_user_byte": {Value: walAmp, Unit: "ratio", N: 1000},
			}
		}
		raw, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a1", 100, 0, 1.5) + "," + write("a2", 104, 0, 1.5)
	for _, tc := range []struct {
		name      string
		b         string
		regressed bool
		want      []string // substrings of the report
	}{
		{"same", write("s1", 101, 0, 1.5) + "," + write("s2", 105, 0, 1.5), false, []string{"5 ok, 0 regressed, 0 unresolved"}},
		{"failures appear", write("f1", 100, 0.001, 1.5), true, []string{"2 regressed"}},
		// zipf_read's row of the same metric is not gated: one regression, not two.
		{"wal doubles", write("w1", 100, 0, 3), true, []string{"1 regressed"}},
		{"rss grows", write("r1", 130, 0, 1.5), true, []string{"2 regressed"}},
		{"rss disagrees with itself", write("u1", 100, 0, 1.5) + "," + write("u2", 160, 0, 1.5), false, []string{"2 unresolved"}},
	} {
		var out strings.Builder
		regressed, err := compareSides(&out, spec, base, tc.b)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		for _, want := range tc.want {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: report lacks %q\n%s", tc.name, want, out.String())
			}
		}
	}
}

// TestParseSpec: a BENCHMARK.json the rest of bench cannot work from is
// refused when it is read, not when a bound is first dereferenced.
func TestParseSpec(t *testing.T) {
	for _, tc := range []struct{ name, raw string }{
		{"end-to-end metric without bound", `{"end_to_end": [{"name": "x", "unit": "s", "better": "lower"}]}`},
		{"per-layer metric with bound", `{"per_layer": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.1}]}`},
		{"no direction", `{"end_to_end": [{"name": "x", "unit": "s", "better": "", "bound": 0.1}]}`},
		{"listed twice", `{"end_to_end": [{"name": "x", "unit": "s", "better": "lower", "bound": 0.1}], "per_layer": [{"name": "x", "unit": "s", "better": "lower"}]}`},
		{"unknown key", `{"end_to_end": [], "gated": []}`},
	} {
		if _, err := parseSpec([]byte(tc.raw)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
