package obs

import (
	"fmt"
	"io"
	"strings"
)

// Kind is what a registered value is; it decides how each surface
// renders it.
type Kind uint8

const (
	// Counter is a monotonic int64.
	Counter Kind = iota
	// Gauge is an int64 that may go down.
	Gauge
	// Info is a string setting: a plain value in STATS and /statsz, a
	// gauge of 1 labelled value="..." in /metrics.
	Info
	// Hist is a histogram in its own unit (segment index, records).
	Hist
	// HistNS is a histogram of nanoseconds; /metrics exposes it in
	// seconds, the Prometheus base unit.
	HistNS
)

// Registry is the one table the stats surfaces render. Each value is
// registered once, by its /statsz path ("coalesce.window_cuts",
// "stages.apply"), with its kind and a read func; Text (the STATS
// reply), Statsz (the /statsz document) and WriteProm (/metrics) walk
// the table in registration order and take every name from Names. A
// new counter is therefore one registration, on all three surfaces.
// Read funcs run only when a surface renders: the values stay the
// atomics their owners record into.
type Registry struct {
	ns      string
	entries []entry
}

type entry struct {
	path string
	kind Kind
	num  func() int64 // Counter, Gauge
	str  func() string
	hist func() HistSnapshot
}

// NewRegistry returns an empty registry whose Prometheus names start
// with ns + "_".
func NewRegistry(ns string) *Registry { return &Registry{ns: ns} }

// Counter registers a monotonic count.
func (r *Registry) Counter(path string, read func() int64) {
	r.add(entry{path: path, kind: Counter, num: read})
}

// Gauge registers a level.
func (r *Registry) Gauge(path string, read func() int64) {
	r.add(entry{path: path, kind: Gauge, num: read})
}

// Info registers a string setting.
func (r *Registry) Info(path string, read func() string) {
	r.add(entry{path: path, kind: Info, str: read})
}

// Hist registers a histogram in its own unit.
func (r *Registry) Hist(path string, read func() HistSnapshot) {
	r.add(entry{path: path, kind: Hist, hist: read})
}

// HistNS registers a histogram of nanoseconds.
func (r *Registry) HistNS(path string, read func() HistSnapshot) {
	r.add(entry{path: path, kind: HistNS, hist: read})
}

func (r *Registry) add(e entry) {
	for _, o := range r.entries {
		if o.path == e.path {
			panic("obs: " + e.path + " registered twice")
		}
	}
	r.entries = append(r.entries, e)
}

// Names is the naming rule, the one place a surface name is made. The
// STATS key is the path with "." replaced by "_". The Prometheus name
// is ns_key, with "_total" after a counter's, and "_seconds" in place
// of a trailing "_ns" on a nanosecond histogram's.
func Names(ns, path string, k Kind) (key, prom string) {
	key = strings.ReplaceAll(path, ".", "_")
	prom = ns + "_" + key
	switch k {
	case Counter:
		prom += "_total"
	case HistNS:
		prom = strings.TrimSuffix(prom, "_ns") + "_seconds"
	}
	return key, prom
}

// scalar reads a counter, gauge or info value.
func (e entry) scalar() any {
	if e.str != nil {
		return e.str()
	}
	return e.num()
}

// Text renders the STATS reply: "key value" lines, a "SECTION name"
// line wherever the first path segment changes (so a block registers
// its histograms after its scalars), and per histogram a "SECTION
// histo key" block of count, p50, p95, p99 and max in its own unit.
func (r *Registry) Text() string {
	var b strings.Builder
	open := ""
	for _, e := range r.entries {
		key, _ := Names(r.ns, e.path, e.kind)
		if sec, _, ok := strings.Cut(e.path, "."); ok && sec != open {
			fmt.Fprintf(&b, "SECTION %s\n", sec)
			open = sec
		}
		if e.hist == nil {
			fmt.Fprintf(&b, "%s %v\n", key, e.scalar())
			continue
		}
		h := e.hist()
		fmt.Fprintf(&b, "SECTION histo %s\n%s_count %d\n%s_p50 %.2f\n%s_p95 %.2f\n%s_p99 %.2f\n%s_max %d\n",
			key, key, h.Count, key, h.Quantile(0.5), key, h.Quantile(0.95), key, h.Quantile(0.99), key, h.Max)
	}
	return b.String()
}

// histJSON is a histogram in the /statsz document: the summary plus
// the trimmed buckets FromBuckets rebuilds the snapshot from.
type histJSON struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets,omitempty"`
}

// Statsz returns the /statsz document, ready for encoding/json: each
// path's segments nest as objects, and each histogram is a histJSON.
func (r *Registry) Statsz() map[string]any {
	doc := map[string]any{}
	for _, e := range r.entries {
		m, leaf := doc, e.path
		for {
			seg, rest, ok := strings.Cut(leaf, ".")
			if !ok {
				break
			}
			sub, _ := m[seg].(map[string]any)
			if sub == nil {
				sub = map[string]any{}
				m[seg] = sub
			}
			m, leaf = sub, rest
		}
		if e.hist == nil {
			m[leaf] = e.scalar()
			continue
		}
		h := e.hist()
		m[leaf] = histJSON{h.Count, h.Sum, h.Max,
			h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.TrimmedBuckets()}
	}
	return doc
}

// WriteProm writes every value in Prometheus text exposition format.
func (r *Registry) WriteProm(w io.Writer) {
	for _, e := range r.entries {
		_, name := Names(r.ns, e.path, e.kind)
		switch e.kind {
		case Counter:
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, e.num())
		case Gauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", name, name, e.num())
		case Info:
			fmt.Fprintf(w, "# TYPE %s gauge\n%s{value=%q} 1\n", name, name, e.str())
		case Hist:
			e.hist().WriteProm(w, name, 1)
		case HistNS:
			e.hist().WriteProm(w, name, 1e-9)
		}
	}
}
