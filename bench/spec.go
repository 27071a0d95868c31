package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// dist names a key-popularity distribution.
type dist int

const (
	distZipf    dist = iota // zipf s=0.99 by rank, ranks scrambled over the universe
	distUniform             // uniform over the universe
	distRecency             // geometric recency, mean 64, 5% uniform restarts
)

// workload is one closed-loop traffic mix against one fresh wsd child.
// Percentages are of commands; what is neither GET nor SCAN is a SET.
type workload struct {
	Name       string
	Depth      int  // pipeline depth per connection (clients = conns × depth)
	Universe   int  // preloaded keys, a power of two
	Dist       dist // key popularity
	GetPct     int
	ScanPct    int
	SetexOneIn int  // every n-th SET goes as SETEX 2 s (0 = never)
	Durable    bool // -data-dir <tmp> -fsync always, kill/restart audit at the end
	Budgeted   bool // -max-bytes = 10 % of the preloaded resident bytes
	WarmOps    int  // warm-up ops per connection, untimed
}

const (
	scanPage    = 100 // pairs per SCAN page
	scanPageArg = "100"
	scanSpan    = 1024 // key indices per SCAN window
	setexSecs   = "2"
	valueBytes  = 64
	keyBytes    = 9 // k%08d
	// residentPerItem is what wsd charges one preloaded item against
	// -max-bytes: key + value + core's flat 96-byte structural overhead.
	residentPerItem = keyBytes + valueBytes + 96
)

// nilLegal reports whether a GET may miss: only where items expire or
// are evicted.
func (w *workload) nilLegal() bool { return w.Budgeted || w.SetexOneIn > 0 }

// standingWorkloads returns the four workloads, names final. shift
// shrinks every universe by 2^shift (the smoke test uses tiny ones; the
// standing runs pass 0).
func standingWorkloads(shift uint) []*workload {
	ws := []*workload{
		{Name: "zipf_read", Depth: 32, Universe: 1 << 18, Dist: distZipf, GetPct: 95, WarmOps: 1 << 15},
		{Name: "uniform_mix", Depth: 32, Universe: 1 << 19, Dist: distUniform, GetPct: 50, WarmOps: 1 << 15},
		{Name: "recency_durable", Depth: 8, Universe: 1 << 18, Dist: distRecency, GetPct: 70, Durable: true, WarmOps: 1 << 14},
		{Name: "cache_scan_d1", Depth: 1, Universe: 1 << 18, Dist: distZipf, GetPct: 88, ScanPct: 2, SetexOneIn: 10, Budgeted: true, WarmOps: 1 << 14},
	}
	for _, w := range ws {
		w.Universe >>= shift
		w.WarmOps >>= shift / 2
	}
	return ws
}

// The 13 end-to-end metric names, in print order. Which of them are
// gated (listed under end_to_end in BENCHMARK.json) and which are
// demoted to reported-only (listed under per_layer) is decided in
// BENCHMARK.json alone; see README.md "Demoted metrics".
var e2eNames = []string{
	"ops_per_s",
	"get_p50_us", "get_p99_us", "set_p50_us", "set_p99_us",
	"scan_p50_us", "scan_p99_us",
	"server_cpu_us_per_op", "server_rss_mb",
	"hit_ratio", "wal_bytes_per_user_byte", "fail_frac", "setup_s",
}

var traceStages = []string{"parse", "queue_wait", "window_wait", "fanout", "apply", "fsync", "reply"}

// traceNames lists the traced-pass metrics, one row per workload.
func traceNames() []string {
	var out []string
	for _, s := range traceStages {
		out = append(out, "trace."+s+"_p50_us", "trace."+s+"_share")
	}
	return append(out,
		"trace.unaccounted_us", "trace.front_hit_ratio", "trace.server_avg_batch",
		"trace.coalesce_avg_batch", "trace.depth_p50", "trace.work_per_op",
		"trace.wal_fsyncs_per_kop", "trace.wal_bytes_per_op",
		"trace.mem_evicted_per_kop", "trace.mem_expired_per_kop", "trace.mem_over_budget",
		"trace.range_pairs_per_scan", "trace.recovery_s", "trace.overhead_frac")
}

// metric is one measured value as it appears in the result document.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind Value: latency samples, operations,
	// probe iterations or rounds, whichever the metric is made of.
	N int64 `json:"n"`
	// Rounds holds the per-round values Value is the median of (full
	// matrix only); -compare reads the spread from them.
	Rounds []float64 `json:"rounds,omitempty"`
}

type metrics map[string]metric

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	s, err := parseSpec(raw)
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// parseSpec decodes BENCHMARK.json and checks what the rest of bench
// relies on: names used once, a direction on every metric, a bound on
// every end-to-end metric and on no per-layer one.
func parseSpec(raw []byte) (*benchSpec, error) {
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	check := func(list string, ms []specMetric, bounded bool) error {
		for _, m := range ms {
			switch {
			case seen[m.Name]:
				return fmt.Errorf("%s: %q is listed twice", list, m.Name)
			case m.Better != "higher" && m.Better != "lower":
				return fmt.Errorf("%s: %q: better is %q, want higher or lower", list, m.Name, m.Better)
			case bounded && (m.Bound == nil || *m.Bound <= 0):
				return fmt.Errorf("%s: %q has no positive bound", list, m.Name)
			case !bounded && m.Bound != nil:
				return fmt.Errorf("%s: %q has a bound; only end_to_end metrics carry one", list, m.Name)
			}
			seen[m.Name] = true
		}
		return nil
	}
	if err := check("end_to_end", s.EndToEnd, true); err != nil {
		return nil, err
	}
	if err := check("per_layer", s.PerLayer, false); err != nil {
		return nil, err
	}
	return &s, nil
}

// gate is the rule -compare judges one metric × workload by.
type gate struct {
	better string
	// bound is the share of A's value by which B may be worse. Zero is
	// the absolute rule: any value worse than A's is a regression.
	bound float64
}

// compareOnly gates end-to-end metrics that BENCHMARK.json cannot list
// under end_to_end: the driver reads every entry there on every workload
// and needs it non-zero, and these are zero wherever wsd is correct
// (fail_frac) or wherever the workload has no such traffic. -compare
// gates them on the workload named here; "" is every workload.
var compareOnly = map[string]struct {
	workload string
	gate
}{
	"fail_frac":               {"", gate{better: "lower"}},
	"wal_bytes_per_user_byte": {"recency_durable", gate{better: "lower", bound: 0.10}},
}

// boundLabel renders how metric name is gated, for the printed tables.
func (s *benchSpec) boundLabel(name string) string {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return fmt.Sprintf("%.0f%%", *m.Bound*100)
		}
	}
	c, ok := compareOnly[name]
	switch {
	case !ok:
		return "-"
	case c.bound == 0:
		return "any increase"
	default:
		return fmt.Sprintf("%.0f%% on %s", c.bound*100, c.workload)
	}
}

// gateFor returns the rule for metric name on workload w, if it is gated.
func (s *benchSpec) gateFor(name, w string) (gate, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return gate{m.Better, *m.Bound}, true
		}
	}
	if c, ok := compareOnly[name]; ok && (c.workload == "" || c.workload == w) {
		return c.gate, true
	}
	return gate{}, false
}

// findRoot walks up from the working directory to the repository root:
// the directory holding cmd/wsd. `go run -C bench .` starts in bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "wsd", "main.go")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("bench: no cmd/wsd above the working directory; run from inside the repository")
		}
		dir = up
	}
}
