package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// humanN renders a sample count compactly.
func humanN(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 10_000:
		return fmt.Sprintf("%dk", n/1000)
	default:
		return fmt.Sprint(n)
	}
}

func docWorkloads(doc *resultDoc) []string {
	var ws []string
	for _, w := range standingWorkloads(0) {
		if _, ok := doc.E2E[w.Name]; ok {
			ws = append(ws, w.Name)
		}
	}
	return ws
}

// printDoc prints every metric of a matrix run by name, with its unit,
// sample count and (for gated end-to-end metrics) its bound.
func printDoc(out io.Writer, spec *benchSpec, doc *resultDoc) {
	ws := docWorkloads(doc)
	table := func(title string, names []string, by map[string]metrics) {
		if len(ws) == 0 {
			return
		}
		fmt.Fprintf(out, "\n== %s ==\n%-28s %-6s", title, "metric", "unit")
		for _, w := range ws {
			fmt.Fprintf(out, " %22s", w)
		}
		fmt.Fprintf(out, "  bound\n")
		for _, name := range names {
			unit, cells := "", ""
			for _, w := range ws {
				m := by[w][name]
				unit = m.Unit
				cells += fmt.Sprintf(" %22s", fmt.Sprintf("%.4g (n=%s)", m.Value, humanN(m.N)))
			}
			fmt.Fprintf(out, "%-28s %-6s%s  %s\n", name, unit, cells, spec.boundLabel(name))
		}
	}
	table("end to end (median of rounds)", e2eNames, doc.E2E)
	for _, w := range ws {
		if v := doc.Oracle[w]; len(v) > 0 {
			fmt.Fprintf(out, "oracle %s: %v\n", w, v)
		}
	}
	if len(doc.Layers) > 0 {
		fmt.Fprintf(out, "\n== layer probes (median of %d) ==\n", probeReps)
		for _, name := range probeNames {
			if m, ok := doc.Layers[name]; ok {
				fmt.Fprintf(out, "%-44s %12.4g %-6s n=%s\n", name, m.Value, m.Unit, humanN(m.N))
			}
		}
	}
	table("traced pass (/statsz deltas)", traceNames(), doc.Trace)
	fmt.Fprintf(out, "\nenv: %s GOMAXPROCS=%d nproc=%d cpu=%q commit=%s seed=%d\ncalib_ns:",
		doc.Env.Go, doc.Env.GOMAXPROCS, doc.Env.NProc, doc.Env.CPUModel, doc.Env.Commit, doc.Env.Seed)
	for _, c := range doc.Env.CalibNs {
		fmt.Fprintf(out, " %.0f", c)
	}
	fmt.Fprintln(out)
}

func readDoc(path string) (*resultDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc resultDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &doc, nil
}

// side is one side of a comparison: the result documents of one or more
// matrix runs of the same code, given as a comma-separated list.
type side struct {
	name  string // "A" or "B"
	paths []string
	docs  []*resultDoc
}

func readSide(name, arg string) (*side, error) {
	s := &side{name: name, paths: strings.Split(arg, ",")}
	for _, path := range s.paths {
		doc, err := readDoc(path)
		if err != nil {
			return nil, err
		}
		s.docs = append(s.docs, doc)
	}
	return s, nil
}

// pick returns the side's reading of one metric. With one document it
// is that document's, whose rounds are the samples; with several, the
// value is the median over the documents and each document is a sample.
func (s *side) pick(get func(*resultDoc) (metric, bool)) (metric, bool) {
	var out metric
	var vals []float64
	for _, doc := range s.docs {
		m, ok := get(doc)
		if !ok {
			return metric{}, false
		}
		out.Unit, out.Rounds = m.Unit, m.Rounds
		out.N += m.N
		vals = append(vals, m.Value)
	}
	out.Value = median(vals)
	if len(vals) > 1 {
		out.Rounds = vals
	}
	return out, true
}

// spread is (max − min) / median of a metric's samples: how far one
// commit disagrees with itself. A single sample has none.
func spread(m metric) (float64, bool) {
	if len(m.Rounds) < 2 {
		return 0, false
	}
	s := append([]float64(nil), m.Rounds...)
	sort.Float64s(s)
	return ratio(s[len(s)-1]-s[0], median(s)), true
}

// verdict judges one gated metric: how much worse b is than a — as a
// share of a under a relative bound, in the metric's own unit under the
// absolute rule. A side whose own samples disagree by more than the
// bound cannot show anything either way.
func verdict(a, b metric, g gate) (worse float64, v string) {
	worse = b.Value - a.Value
	if g.better == "higher" && worse != 0 {
		worse = -worse
	}
	if g.bound == 0 {
		if worse > 0 {
			return worse, "regressed"
		}
		return worse, "ok"
	}
	worse = ratio(worse, a.Value)
	sa, _ := spread(a)
	sb, _ := spread(b)
	switch {
	case max(sa, sb) > g.bound:
		return worse, "unresolved"
	case worse > g.bound:
		return worse, "regressed"
	default:
		return worse, "ok"
	}
}

// compareSides prints, per metric × workload, B against A. A gated
// end-to-end metric gets its change signed so that positive is worse,
// and a verdict against its bound; everything else gets its plain
// relative change. It reports whether any metric regressed.
func compareSides(out io.Writer, spec *benchSpec, argA, argB string) (regressed bool, err error) {
	a, err := readSide("A", argA)
	if err != nil {
		return false, err
	}
	b, err := readSide("B", argB)
	if err != nil {
		return false, err
	}
	for _, s := range []*side{a, b} {
		for i, doc := range s.docs {
			if doc.Env.Seconds != a.docs[0].Env.Seconds {
				return false, fmt.Errorf("%s has %g s rounds, %s %g s: not comparable",
					s.paths[i], doc.Env.Seconds, a.paths[0], a.docs[0].Env.Seconds)
			}
			fmt.Fprintf(out, "%s %s: commit %s, seed %d, %g s rounds\n", s.name, s.paths[i],
				doc.Env.Commit, doc.Env.Seed, doc.Env.Seconds)
		}
	}
	fmt.Fprintf(out, "\n%-16s %-28s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	counts := map[string]int{}
	row := func(w, name string, get func(*resultDoc) (metric, bool)) {
		ma, okA := a.pick(get)
		mb, okB := b.pick(get)
		if !okA || !okB {
			return
		}
		sp := "-"
		sa, hasA := spread(ma)
		sb, hasB := spread(mb)
		if hasA || hasB {
			sp = fmt.Sprintf("%.1f%%", 100*max(sa, sb))
		}
		g, gated := spec.gateFor(name, w)
		switch {
		case !gated:
			fmt.Fprintf(out, "%-16s %-28s %12.4g %12.4g %+7.1f%% %7s %7s  -\n", w, name, ma.Value, mb.Value,
				100*ratio(mb.Value-ma.Value, ma.Value), sp, "-")
		case g.bound == 0:
			worse, v := verdict(ma, mb, g)
			counts[v]++
			fmt.Fprintf(out, "%-16s %-28s %12.4g %12.4g %+8.3g %7s %7s  %s\n", w, name, ma.Value, mb.Value, worse, sp, "0", v)
		default:
			worse, v := verdict(ma, mb, g)
			counts[v]++
			fmt.Fprintf(out, "%-16s %-28s %12.4g %12.4g %+7.1f%% %7s %6.0f%%  %s\n", w, name, ma.Value, mb.Value,
				100*worse, sp, 100*g.bound, v)
		}
	}
	for _, w := range docWorkloads(a.docs[0]) {
		for _, name := range e2eNames {
			row(w, name, func(d *resultDoc) (metric, bool) { m, ok := d.E2E[w][name]; return m, ok })
		}
		for _, name := range traceNames() {
			row(w, name, func(d *resultDoc) (metric, bool) { m, ok := d.Trace[w][name]; return m, ok })
		}
	}
	for _, name := range probeNames {
		row("-", name, func(d *resultDoc) (metric, bool) { m, ok := d.Layers[name]; return m, ok })
	}
	var parts []string
	for _, v := range []string{"ok", "regressed", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintf(out, "\ngated end-to-end metrics: %s\n", strings.Join(parts, ", "))
	return counts["regressed"] > 0, nil
}
