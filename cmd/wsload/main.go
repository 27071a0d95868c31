// Wsload is a closed-loop load generator for wsd: N connections each
// drive a pipeline of depth D of mixed GET/SET (and optionally SCAN)
// requests drawn from the internal/workload generators, and report
// throughput and latency percentiles per workload.
//
// Usage:
//
//	wsload                                  # zipf + working-set, 8 conns, depth 16
//	wsload -addr host:6380 -conns 32 -depth 64
//	wsload -workloads uniform,zipf -n 1000000
//	wsload -depth 1                         # unpipelined baseline
//	wsload -rate 50000                      # open-loop fixed-rate mode (no
//	                                        # coordinated omission; see below)
//	wsload -scan-frac 0.1 -scan-count 100   # mixed scan workload: 10% of
//	                                        # commands read one cursor page
//	                                        # (scan latency reported apart)
//	wsload -retry 10s -op-timeout 5s        # ride through server restarts:
//	                                        # dial failures back off (capped,
//	                                        # jittered) and dropped batches
//	                                        # are reissued on a fresh conn
//	wsload -chaos -chaos-bin ./wsd -chaos-dir /tmp/chaos
//	                                        # durability audit: spawn wsd over
//	                                        # a data dir, SIGKILL it mid-load,
//	                                        # restart, verify every acked
//	                                        # write survived (exit 1 on any
//	                                        # violation)
//	wsload -json                            # one JSON object per workload
//	wsload -statsz http://127.0.0.1:6381/statsz
//	                                        # scrape the server's admin
//	                                        # endpoint between runs and print
//	                                        # server-side depth/stage
//	                                        # percentiles next to the client
//	                                        # latencies (wsd -admin)
//
// Pipeline depth is the interesting knob: the server drains each
// connection's pipelined requests into one batch Apply, so deeper
// pipelines mean fewer, larger batches (see the server's STATS:
// server_ops / server_batches) — the network realization of the
// paper's batching.
//
// The default pacing is a closed loop, which under-reports latency when
// the server queues (coordinated omission: a slow reply also delays the
// next request). -rate N switches to an open loop that issues N ops/s on
// a fixed schedule and measures every reply against its scheduled send
// time — the right way to read the latency cost of wsd's
// -coalesce-window.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"

	"repro/internal/loadgen"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:6380", "wsd server address")
		conns     = flag.Int("conns", 8, "concurrent connections")
		depth     = flag.Int("depth", 16, "pipeline depth per connection (1 = no pipelining)")
		rate      = flag.Float64("rate", 0, "open-loop fixed rate in ops/s across all connections (0 = closed loop)")
		n         = flag.Int("n", 200_000, "total operations per workload")
		workloads = flag.String("workloads", "zipf,working-set", "comma-separated workloads: uniform, zipf, working-set")
		universe  = flag.Int("universe", 1<<16, "key-space size")
		zipfS     = flag.Float64("zipf", 0.99, "zipf skew s")
		recency   = flag.Int("recency", 64, "mean recency for the working-set workload")
		getFrac   = flag.Float64("get", 0.9, "fraction of GETs (rest are SETs)")
		scanFrac  = flag.Float64("scan-frac", 0, "fraction of commands that are cursor-paged SCANs (scan latency reported separately)")
		scanCount = flag.Int("scan-count", 100, "pairs per SCAN page")
		scanSpan  = flag.Int("scan-span", 1024, "key-index width of each scan window")
		ttlFrac   = flag.Float64("ttl-frac", 0, "fraction of writes issued as SETEX instead of SET (bounded-memory/TTL soaks)")
		ttlSec    = flag.Int("ttl-sec", 60, "SETEX TTL in seconds for the -ttl-frac writes")
		preload   = flag.Bool("preload", true, "insert every universe key before measuring")
		seed      = flag.Int64("seed", 1, "generator seed")
		jsonOut   = flag.Bool("json", false, "emit one JSON object per workload")
		statsz    = flag.String("statsz", "", "admin /statsz URL to scrape between runs (server-side percentiles)")
		retry     = flag.Duration("retry", 0, "reconnect budget: redial with capped jittered backoff and reissue dropped batches for up to this long (0 = fail fast)")
		opTimeout = flag.Duration("op-timeout", 0, "per-batch operation deadline (0 = none)")

		chaos      = flag.Bool("chaos", false, "run the kill/restart durability audit instead of a load run")
		chaosBin   = flag.String("chaos-bin", "", "wsd binary to spawn for -chaos")
		chaosDir   = flag.String("chaos-dir", "", "data directory for -chaos (the spawned server's -data-dir)")
		chaosKill  = flag.Int("chaos-kill", 0, "SIGKILL once this many ops are acked (0 = a third of the budget)")
		chaosFsync = flag.String("chaos-fsync", "always", "fsync policy for the spawned server")
		chaosTTL   = flag.Int("chaos-ttl", 0, "short-TTL keys planted for the expiry-resurrection audit (0 = default 64, negative = off)")
		chaosMaxB  = flag.Int64("chaos-max-bytes", 0, "run the spawned server bounded (-max-bytes): acked SETs may evict, audit relaxes accordingly")
	)
	flag.Parse()

	if *chaos {
		rep, err := loadgen.Chaos(loadgen.ChaosConfig{
			ServerBin:  *chaosBin,
			DataDir:    *chaosDir,
			Addr:       *addr,
			Fsync:      *chaosFsync,
			Conns:      *conns,
			OpsPerConn: *n / max(*conns, 1),
			Depth:      *depth,
			KillAcked:  *chaosKill,
			TTLKeys:    *chaosTTL,
			MaxBytes:   *chaosMaxB,
			Seed:       *seed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "wsload: "+format+"\n", args...)
			},
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsload: chaos: %v\n", err)
			os.Exit(1)
		}
		b, _ := json.MarshalIndent(rep, "", "  ")
		fmt.Println(string(b))
		if len(rep.Violations) > 0 {
			fmt.Fprintf(os.Stderr, "wsload: chaos: %d durability violations\n", len(rep.Violations))
			os.Exit(1)
		}
		return
	}

	dial := func() (net.Conn, error) { return net.Dial("tcp", *addr) }

	// The flags default to the library defaults, so an explicit 0 on the
	// command line means zero — map it to the library's negative
	// "really zero" sentinel.
	gf, zs := *getFrac, *zipfS
	if gf == 0 {
		gf = -1
	}
	if zs == 0 {
		zs = -1
	}

	ok := true
	for _, w := range strings.Split(*workloads, ",") {
		w = strings.TrimSpace(w)
		if w == "" {
			continue
		}
		cfg := loadgen.Config{
			Conns:       *conns,
			Depth:       *depth,
			Rate:        *rate,
			Ops:         *n,
			Workload:    loadgen.Workload(w),
			Universe:    *universe,
			ZipfS:       zs,
			MeanRecency: *recency,
			GetFrac:     gf,
			ScanFrac:    *scanFrac,
			ScanCount:   *scanCount,
			ScanSpan:    *scanSpan,
			TTLFrac:     *ttlFrac,
			TTLSeconds:  *ttlSec,
			Preload:     *preload,
			Seed:        *seed,
			Retry:       *retry,
			OpTimeout:   *opTimeout,
		}
		// With scraping on, preload runs before the baseline scrape so the
		// reported server-side interval covers only the measured ops.
		var prev loadgen.Statsz
		if *statsz != "" {
			if cfg.Preload {
				if err := loadgen.Preload(cfg, dial); err != nil {
					fmt.Fprintf(os.Stderr, "wsload: %s: preload: %v\n", w, err)
					ok = false
					continue
				}
				cfg.Preload = false
			}
			var err error
			if prev, err = loadgen.ScrapeStatsz(*statsz); err != nil {
				fmt.Fprintf(os.Stderr, "wsload: %v\n", err)
				ok = false
				continue
			}
		}
		rep, err := loadgen.Run(cfg, dial)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wsload: %s: %v\n", w, err)
			ok = false
			continue
		}
		if *jsonOut {
			b, err := json.Marshal(rep)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wsload: %v\n", err)
				ok = false
				continue
			}
			fmt.Println(string(b))
		} else {
			fmt.Println(rep.String())
		}
		if *statsz != "" {
			cur, err := loadgen.ScrapeStatsz(*statsz)
			if err != nil {
				fmt.Fprintf(os.Stderr, "wsload: %v\n", err)
				ok = false
				continue
			}
			fmt.Println(cur.Summary(prev))
		}
	}
	if !ok {
		os.Exit(1)
	}
}
