// Bench is the repository's standing benchmark: four closed-loop
// workloads against a spawned wsd over loopback TCP with every reply
// checked, in-process probes of each layer, and a /statsz-traced pass.
// README.md in this directory describes the rig and the metrics.
//
//	go run -C bench .                                  # the whole matrix
//	go run -C bench . -only zipf_read,wire             # one workload, one probe family
//	go run -C bench . -workload zipf_read -trace 0     # one run, as the driver makes it
//	go run -C bench . -compare A.json B.json           # verdict per metric × workload
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// matrixRounds is how many timed rounds the matrix gives each workload,
// interleaved across workloads; a metric is the median of its rounds.
const matrixRounds = 3

// driverServers is how many fresh servers a driver run (-trace 0) sets
// up in turn: the contract wants setup_s as the median of several
// set-ups within one run. Each server gets a third of the window, and
// every metric is the median over the three.
const driverServers = 3

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	only     string
	outDir   string
	wsdFlags string
	compare  bool
}

// errRegressed is -compare's verdict when some gated metric got worse by
// more than its bound; main turns it into exit status 2.
var errRegressed = errors.New("regressed")

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload once and print the driver's result line")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed generates the same commands")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of one timed round (with -workload: of the whole window)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer ones (probes + traced run)")
	flag.StringVar(&o.only, "only", "", "matrix mode: comma-separated workloads and probe families to run (default all)")
	flag.StringVar(&o.outDir, "out", "", "directory for result.json, trace.jsonl and hang dumps (default .bench_build/out)")
	flag.StringVar(&o.wsdFlags, "wsd-flags", "", "extra wsd flags for ad-hoc runs, e.g. \"-engine m2\"; standing runs pass none")
	flag.BoolVar(&o.compare, "compare", false, "compare result.json files: bench -compare A.json[,A2.json...] B.json[,B2.json...]")
	flag.Parse()
	switch err := run(o); {
	case err == errRegressed:
		os.Exit(2)
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	spec, err := loadSpec(root)
	if err != nil {
		return err
	}
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare A.json[,A2.json...] B.json[,B2.json...]")
		}
		regressed, err := compareSides(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err == nil && regressed {
			err = errRegressed
		}
		return err
	}
	if o.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}

	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	buildDir := filepath.Join(root, ".bench_build")
	outDir := o.outDir
	if outDir == "" {
		outDir = filepath.Join(buildDir, "out")
	}
	workDir := filepath.Join(buildDir, fmt.Sprintf("run-%d", os.Getpid()))
	for _, d := range []string{outDir, workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(workDir)
	bin, err := buildWsd(root, buildDir)
	if err != nil {
		return err
	}
	r := &rig{bin: bin, procs: procs, seed: o.seed, workDir: workDir, outDir: outDir, wsdFlags: strings.Fields(o.wsdFlags)}
	dur := time.Duration(o.seconds * float64(time.Second))

	if o.workload != "" {
		for _, w := range standingWorkloads(0) {
			if w.Name == o.workload {
				return driverRun(r, spec, w, dur, o.trace == 1)
			}
		}
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	return matrixRun(r, spec, root, dur, o.only)
}

// cell is one workload's untraced measurement: its timed rounds, and
// per server it ran on (one in the matrix, driverServers in a driver
// run) the set-up time, the end-of-run readings and, where the workload
// is durable, the restart audit.
type cell struct {
	rounds    []roundStats
	audits    []roundStats
	setupS    []float64
	rssMB     []float64
	recoveryS []float64
	walBytes  int64
	userBytes int64
}

// all returns the timed rounds followed by the restart audits.
func (c *cell) all() []roundStats {
	return append(c.rounds[:len(c.rounds):len(c.rounds)], c.audits...)
}

// finish takes the end-of-run readings from b and stops it: peak RSS,
// the data directory's size, and for a durable workload the kill /
// restart / re-read audit.
func (c *cell) finish(b *bed) error {
	defer b.close()
	c.setupS = append(c.setupS, b.setupS)
	if b.srv.alive() {
		c.rssMB = append(c.rssMB, b.srv.rssPeakMB())
	}
	c.walBytes += b.walBytes()
	c.userBytes += b.userBytes
	if !b.w.Durable {
		return nil
	}
	recoveryS, audit, err := b.restartAudit()
	c.recoveryS = append(c.recoveryS, recoveryS)
	c.audits = append(c.audits, audit)
	return err
}

// e2e assembles the 13 end-to-end metrics of one workload. A metric made
// of rounds is the median of its rounds.
func (c *cell) e2e() metrics {
	out := metrics{}
	per := func(name, unit string, n int64, f func(rs roundStats) float64) {
		var vals []float64
		for _, rs := range c.rounds {
			vals = append(vals, f(rs))
		}
		out[name] = metric{Value: median(vals), Unit: unit, N: n, Rounds: vals}
	}
	attempted, failed := c.counts()
	var ops, gets int64
	var latN [numOpKinds]int64
	for _, rs := range c.rounds {
		ops += rs.ops
		gets += rs.gets
		for k := range latN {
			latN[k] += rs.latN[k]
		}
	}
	per("ops_per_s", "1/s", ops, func(rs roundStats) float64 { return rs.opsPerS })
	for k, name := range [numOpKinds]string{"get", "set", "scan"} {
		per(name+"_p50_us", "us", latN[k], func(rs roundStats) float64 { return rs.p50[k] / 1000 })
		per(name+"_p99_us", "us", latN[k], func(rs roundStats) float64 { return rs.p99[k] / 1000 })
	}
	per("server_cpu_us_per_op", "us", ops, func(rs roundStats) float64 {
		return ratio(float64(rs.cpuTicks)*1e6/ticksPerSecond, float64(rs.ops))
	})
	out["server_rss_mb"] = metric{Value: median(c.rssMB), Unit: "MiB", N: int64(len(c.rssMB)), Rounds: c.rssMB}
	per("hit_ratio", "ratio", gets, func(rs roundStats) float64 { return ratio(float64(rs.hits), float64(rs.gets)) })
	out["wal_bytes_per_user_byte"] = metric{Value: ratio(float64(c.walBytes), float64(c.userBytes)), Unit: "ratio", N: c.userBytes}
	out["fail_frac"] = metric{Value: ratio(float64(failed), float64(attempted)), Unit: "ratio", N: attempted}
	out["setup_s"] = metric{Value: median(c.setupS), Unit: "s", N: int64(len(c.setupS)), Rounds: c.setupS}
	return out
}

// violations sums the oracle's findings by kind.
func (c *cell) violations() map[string]int64 {
	out := map[string]int64{}
	for _, rs := range c.all() {
		for v := vNone + 1; v < numViolations; v++ {
			if rs.viol[v] > 0 {
				out[violationNames[v]] += rs.viol[v]
			}
		}
	}
	return out
}

func (c *cell) counts() (attempted, failed int64) {
	for _, rs := range c.all() {
		attempted += rs.attempted
		failed += rs.failed
	}
	return
}

// tracedRun starts a traced server for w (-admin, -work-counter), runs
// one round with /statsz scraped at both ends, and returns the trace.*
// rows and the client-side spans.
func tracedRun(r *rig, w *workload, dur time.Duration, recoveryS, untracedOps float64) (metrics, []span, error) {
	b, err := newBed(r, w, true)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	a, err := scrapeStatsz(b.srv.admin)
	if err != nil {
		return nil, nil, err
	}
	rs := b.round(dur, 0, true)
	if !b.srv.alive() {
		return nil, nil, fmt.Errorf("%s: traced wsd did not survive its round (%s)", w.Name, rs.aborted)
	}
	z, err := scrapeStatsz(b.srv.admin)
	if err != nil {
		return nil, nil, err
	}
	return traceMetrics(a, z, rs, recoveryS, untracedOps), rs.spans, nil
}

// driverRun is one run as the driver makes it: one workload, one timed
// window, the contract's result line last on standard output. With
// trace off it reports the gated end-to-end metrics; with trace on, the
// window is split between an untraced and a traced server and every
// per-layer metric is reported.
func driverRun(r *rig, spec *benchSpec, w *workload, dur time.Duration, traced bool) error {
	c := &cell{}
	servers := driverServers
	if traced {
		servers = 1
		dur /= 2 // the other half goes to the traced server
	}
	for i := 0; i < servers; i++ {
		b, err := newBed(r, w, false)
		if err != nil {
			return err
		}
		c.rounds = append(c.rounds, b.round(dur/time.Duration(servers), 0, false))
		if err := c.finish(b); err != nil {
			return err
		}
	}
	all := c.e2e()
	if traced {
		tm, spans, err := tracedRun(r, w, dur, median(c.recoveryS), all["ops_per_s"].Value)
		if err != nil {
			return err
		}
		if err := writeSpans(filepath.Join(r.outDir, "trace.jsonl"), map[string][]span{w.Name: spans}); err != nil {
			return err
		}
		for k, v := range tm {
			all[k] = v
		}
		for k, v := range runProbes(r, nil) {
			all[k] = v
		}
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	line.Attempted, line.Failed = c.counts()
	line.Correct = line.Failed == 0
	for _, m := range want {
		got, ok := all[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names %q, which bench does not measure", m.Name)
		}
		fmt.Printf("%-40s %14.4f %-6s n=%d\n", m.Name, got.Value, got.Unit, got.N)
		line.Metrics[m.Name] = value{got.Value, m.Unit}
	}
	for kind, n := range c.violations() {
		fmt.Printf("oracle: %s × %d\n", kind, n)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(raw))
	return nil
}

// envInfo records the rig a result was measured on.
type envInfo struct {
	Go         string    `json:"go"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	CPUModel   string    `json:"cpu_model"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"round_seconds"`
	WsdFlags   []string  `json:"wsd_flags,omitempty"`
	CalibNs    []float64 `json:"calib_ns"` // one per timed round, in the order they ran
}

// resultDoc is the one JSON document a matrix run writes. Maps marshal
// with sorted keys, so the key order is stable.
type resultDoc struct {
	Env    envInfo                     `json:"env"`
	E2E    map[string]metrics          `json:"e2e"`    // workload → metric
	Layers metrics                     `json:"layers"` // layer probes
	Trace  map[string]metrics          `json:"trace"`  // workload → trace.* metric
	Oracle map[string]map[string]int64 `json:"oracle"` // workload → violation kind → count
}

// fillEnv records everything about the rig except calib_ns, which the
// rounds have filled in already.
func fillEnv(e *envInfo, r *rig, root string, seconds float64) {
	e.Go, e.GOMAXPROCS, e.NProc = runtime.Version(), r.procs, runtime.NumCPU()
	e.CPUModel, e.Commit = "unknown", "unknown"
	e.Seed, e.Seconds, e.WsdFlags = r.seed, seconds, r.wsdFlags
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
}

// calibrate times a fixed pure-CPU loop. It is reported next to every
// round so that machine drift is visible; it never normalises a result.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(probeSeed)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return float64(time.Since(t0))
}

var calibSink uint64

// matrixRun is the one command: the selected workloads and probe
// families measured, every metric printed by name, and the result
// document and client-side spans written to the output directory.
func matrixRun(r *rig, spec *benchSpec, root string, dur time.Duration, only string) error {
	sel := map[string]bool{}
	for _, s := range strings.Split(only, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sel[s] = true
		}
	}
	var ws []*workload
	for _, w := range standingWorkloads(0) {
		if len(sel) == 0 || sel[w.Name] {
			ws = append(ws, w)
		}
	}
	families := map[string]bool{}
	for _, f := range probeFamilies {
		if len(sel) == 0 || sel[f.name] {
			families[f.name] = true
		}
	}
	doc, spans, err := matrix(r, ws, families, dur, matrixRounds)
	if err != nil {
		return err
	}
	fillEnv(&doc.Env, r, root, dur.Seconds())
	if err := writeSpans(filepath.Join(r.outDir, "trace.jsonl"), spans); err != nil {
		return err
	}
	printDoc(os.Stdout, spec, doc)
	raw, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(r.outDir, "result.json")
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nresult: %s\nspans:  %s\n", path, filepath.Join(r.outDir, "trace.jsonl"))
	return nil
}

// matrix measures ws and the probe families: every workload set up on
// its own server and all of them kept alive, the timed rounds
// interleaved across workloads (A B C D A B C D ...) so that slow
// machine drift hits each workload equally, then the layer probes, then
// the traced pass on fresh servers.
func matrix(r *rig, ws []*workload, families map[string]bool, dur time.Duration, rounds int) (*resultDoc, map[string][]span, error) {
	doc := &resultDoc{E2E: map[string]metrics{}, Layers: metrics{}, Trace: map[string]metrics{},
		Oracle: map[string]map[string]int64{}}
	beds := make([]*bed, len(ws))
	cells := make([]*cell, len(ws))
	defer func() {
		for _, b := range beds {
			if b != nil {
				b.close()
			}
		}
	}()
	for i, w := range ws {
		fmt.Fprintf(os.Stderr, "bench: setting up %s\n", w.Name)
		b, err := newBed(r, w, false)
		if err != nil {
			return nil, nil, err
		}
		beds[i], cells[i] = b, &cell{}
	}
	for round := 0; round < rounds; round++ {
		for i, w := range ws {
			calib := calibrate()
			doc.Env.CalibNs = append(doc.Env.CalibNs, calib)
			rs := beds[i].round(dur, 0, false)
			cells[i].rounds = append(cells[i].rounds, rs)
			fmt.Fprintf(os.Stderr, "bench: round %d %-16s %9.0f ops/s  failed %d/%d  calib %.1f ms\n",
				round+1, w.Name, rs.opsPerS, rs.failed, rs.attempted, calib/1e6)
		}
	}
	for i, w := range ws {
		err := cells[i].finish(beds[i])
		beds[i] = nil
		if err != nil {
			return nil, nil, err
		}
		doc.E2E[w.Name] = cells[i].e2e()
		doc.Oracle[w.Name] = cells[i].violations()
	}
	if len(families) > 0 {
		doc.Layers = runProbes(r, families)
	}
	spans := map[string][]span{}
	for i, w := range ws {
		fmt.Fprintf(os.Stderr, "bench: traced pass %s\n", w.Name)
		tm, sp, err := tracedRun(r, w, dur, median(cells[i].recoveryS), doc.E2E[w.Name]["ops_per_s"].Value)
		if err != nil {
			return nil, nil, err
		}
		doc.Trace[w.Name], spans[w.Name] = tm, sp
	}
	return doc, spans, nil
}
