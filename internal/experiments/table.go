// Package experiments implements the reproduction experiments E1–E16 of
// EXPERIMENTS.md: one function per claim (theorem bound, lemma property or
// analytical comparison), each returning a printable table. The cmd/wsbench binary prints them; the root bench
// suite runs scaled-down versions under testing.B.
package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Note != "" {
		fmt.Fprintf(&sb, "-- %s\n", t.Note)
	}
	return sb.String()
}

// jsonRow is the machine-readable form of one table row. Go and
// Gomaxprocs pin the row's environment so archived trajectories
// (BENCH_*.json) stay comparable across machines and toolchains.
type jsonRow struct {
	Exp        string            `json:"exp"`
	Title      string            `json:"title"`
	Go         string            `json:"go"`
	Gomaxprocs int               `json:"gomaxprocs"`
	Cols       map[string]string `json:"cols"`
}

// JSONRows renders the table as JSON lines — one object per row, keyed
// by the experiment id and the column headers — so bench trajectories
// (BENCH_*.json) can be recorded from CI or scripts with
// `wsbench -json`.
func (t Table) JSONRows(id string) []string {
	out := make([]string, 0, len(t.Rows))
	for _, r := range t.Rows {
		cols := make(map[string]string, len(r))
		for i, c := range r {
			key := fmt.Sprintf("col%d", i)
			if i < len(t.Header) {
				key = t.Header[i]
			}
			cols[key] = c
		}
		b, err := json.Marshal(jsonRow{
			Exp: id, Title: t.Title,
			Go: runtime.Version(), Gomaxprocs: runtime.GOMAXPROCS(0),
			Cols: cols,
		})
		if err != nil {
			continue // string maps cannot fail to marshal
		}
		out = append(out, string(b))
	}
	return out
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }

// Scale shrinks experiment sizes for quick runs (benchmarks) versus the
// full tables printed by cmd/wsbench.
type Scale struct {
	// N is the base operation count.
	N int
	// Sizes are the map sizes swept by size-sensitive experiments.
	Sizes []int
	// Procs are the p values swept by scaling experiments.
	Procs []int
	// Clients are the concurrent-client counts swept by throughput
	// experiments (batches only grow with clients in flight, since every
	// client blocks on its own operation).
	Clients []int
}

// MaxClients returns the largest client count of the scale.
func (s Scale) MaxClients() int {
	m := 1
	for _, c := range s.Clients {
		if c > m {
			m = c
		}
	}
	return m
}

// Full is the default experiment scale used by cmd/wsbench.
var Full = Scale{
	N:       200_000,
	Sizes:   []int{1_000, 10_000, 100_000, 1_000_000},
	Procs:   []int{1, 2, 4, 8},
	Clients: []int{4, 16, 64, 256},
}

// Quick is a reduced scale for the bench suite.
var Quick = Scale{
	N:       40_000,
	Sizes:   []int{1_000, 10_000, 100_000},
	Procs:   []int{2, 4},
	Clients: []int{4, 32, 128},
}
