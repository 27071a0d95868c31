package loadgen

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

// StatszHist mirrors one histogram of the server's /statsz JSON: scalar
// summary plus the trimmed log-bucket counts, from which the full
// snapshot is reconstructed (obs.FromBuckets) so two scrapes can be
// diffed and the interval quantiled client-side.
type StatszHist struct {
	Count   int64   `json:"count"`
	Sum     int64   `json:"sum"`
	Max     int64   `json:"max"`
	P50     float64 `json:"p50"`
	P95     float64 `json:"p95"`
	P99     float64 `json:"p99"`
	Buckets []int64 `json:"buckets"`
}

// Snapshot reconstructs the obs snapshot the server serialized.
func (h StatszHist) Snapshot() obs.HistSnapshot {
	return obs.FromBuckets(h.Count, h.Sum, h.Max, h.Buckets)
}

// Statsz is the subset of the server's /statsz document wsload reads:
// the merged working-set depth histogram with its per-source split, and
// the batch-stage histograms (nanoseconds).
type Statsz struct {
	Shards       int                   `json:"shards"`
	Keys         int                   `json:"keys"`
	Memory       StatszMem             `json:"memory"`
	Depth        StatszHist            `json:"depth"`
	DepthSources map[string]int64      `json:"depth_sources"`
	Stages       map[string]StatszHist `json:"stages"`
	Work         *StatszWork           `json:"work,omitempty"`
	Front        *StatszFront          `json:"front,omitempty"`
}

// StatszFront mirrors the optional hot-key front cache block (present
// when the server runs with the front cache enabled). The counters are
// cumulative; diff two scrapes for a per-run hit ratio.
type StatszFront struct {
	Entries     int64 `json:"entries"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Reserves    int64 `json:"reserves"`
	Installs    int64 `json:"installs"`
	Invalidates int64 `json:"invalidates"`
	Evictions   int64 `json:"evictions"`
}

// StatszMem mirrors the bounded-memory/TTL block: the resident-byte
// gauge against the configured budget plus the lifetime eviction and
// expiry counters (diff two scrapes for a per-run count).
type StatszMem struct {
	MaxBytes int64 `json:"max_bytes"`
	Bytes    int64 `json:"bytes"`
	Evicted  int64 `json:"evicted"`
	Expired  int64 `json:"expired"`
	TTLs     int64 `json:"ttls"`
}

// StatszWork mirrors the optional structural-work counter (present when
// the server runs with -work-counter).
type StatszWork struct {
	Visits int64 `json:"visits"`
}

// Total returns the structural work: the node visits.
func (w *StatszWork) Total() int64 {
	if w == nil {
		return 0
	}
	return w.Visits
}

// ScrapeStatsz fetches and decodes url (a wsd admin /statsz endpoint).
func ScrapeStatsz(url string) (Statsz, error) {
	resp, err := http.Get(url)
	if err != nil {
		return Statsz{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Statsz{}, fmt.Errorf("loadgen: statsz: %s: %s", url, resp.Status)
	}
	var s Statsz
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return Statsz{}, fmt.Errorf("loadgen: statsz: %s: %w", url, err)
	}
	return s, nil
}

// DepthInterval returns the depth histogram of the interval between an
// earlier scrape prev and s — server-side telemetry for exactly the
// operations the run issued (histograms are cumulative; Sub diffs them).
func (s Statsz) DepthInterval(prev Statsz) obs.HistSnapshot {
	return s.Depth.Snapshot().Sub(prev.Depth.Snapshot())
}

// StageInterval returns one stage's duration histogram over the
// interval between prev and s.
func (s Statsz) StageInterval(prev Statsz, stage string) obs.HistSnapshot {
	return s.Stages[stage].Snapshot().Sub(prev.Stages[stage].Snapshot())
}

// Summary renders the server-side interval since prev as display lines:
// the working-set depth percentiles with the per-source resolution
// split, then per-stage latency percentiles for every stage that
// recorded anything. This is what wsload prints next to the client-side
// latencies when -statsz is set.
func (s Statsz) Summary(prev Statsz) string {
	var b strings.Builder
	d := s.DepthInterval(prev)
	fmt.Fprintf(&b, "server depth: n=%-8d p50=%-5.1f p95=%-5.1f max=%d",
		d.Count, d.Quantile(0.50), d.Quantile(0.95), d.Max)
	if total := d.Count; total > 0 {
		names := make([]string, 0, len(s.DepthSources))
		for name := range s.DepthSources {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			n := s.DepthSources[name] - prev.DepthSources[name]
			if n > 0 {
				fmt.Fprintf(&b, "  %s=%.0f%%", name, 100*float64(n)/float64(total))
			}
		}
	}
	if s.Front != nil {
		// Interval hit ratio: cumulative counters diffed against the
		// pre-run scrape (prev.Front may be nil on a freshly started
		// server).
		var ph, pm int64
		if prev.Front != nil {
			ph, pm = prev.Front.Hits, prev.Front.Misses
		}
		hits, misses := s.Front.Hits-ph, s.Front.Misses-pm
		if lookups := hits + misses; lookups > 0 {
			fmt.Fprintf(&b, "\nserver front: hit=%.1f%% (%d/%d)",
				100*float64(hits)/float64(lookups), hits, lookups)
		}
	}
	// The memory line appears whenever the run is bounded or touched
	// TTLs: resident bytes against the budget is the soak's pass/fail
	// gauge, evicted/expired are the interval's removals.
	if m := s.Memory; m.MaxBytes > 0 || m.Evicted+m.Expired+m.TTLs > 0 ||
		prev.Memory.Evicted+prev.Memory.Expired > 0 {
		fmt.Fprintf(&b, "\nserver memory: resident=%d", m.Bytes)
		if m.MaxBytes > 0 {
			fmt.Fprintf(&b, "/%d (%.0f%% of budget)", m.MaxBytes, 100*float64(m.Bytes)/float64(m.MaxBytes))
		}
		fmt.Fprintf(&b, "  evicted=%d expired=%d ttls=%d",
			m.Evicted-prev.Memory.Evicted, m.Expired-prev.Memory.Expired, m.TTLs)
	}
	stages := make([]string, 0, len(s.Stages))
	for name := range s.Stages {
		stages = append(stages, name)
	}
	sort.Strings(stages)
	first := true
	for _, name := range stages {
		h := s.StageInterval(prev, name)
		if h.Count <= 0 {
			continue
		}
		if first {
			b.WriteString("\nserver stages:")
			first = false
		}
		fmt.Fprintf(&b, " %s{p50=%s p99=%s}", name,
			roundDur(h.Quantile(0.50)), roundDur(h.Quantile(0.99)))
	}
	return b.String()
}

// roundDur renders a nanosecond quantile compactly.
func roundDur(ns float64) time.Duration {
	d := time.Duration(ns)
	switch {
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(10 * time.Nanosecond)
	default:
		return d
	}
}
