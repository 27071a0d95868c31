// Package loadgen is the load generator behind cmd/wsload: N connections
// drive mixed GET/SET traffic against a wsd server, drawing keys from
// the internal/workload generators, and report throughput and latency
// percentiles. It is transport-agnostic (the caller supplies a dial
// function), so the same loop drives a TCP server and an in-process
// net.Pipe server in tests.
//
// Two pacing modes exist. The default closed loop has each connection
// drive a pipeline of depth D, issuing its next batch only after the
// previous one's replies — throughput-oriented, but latency under load
// suffers coordinated omission (a slow reply delays the next request,
// hiding the queueing the server caused). The open-loop mode
// (Config.Rate > 0) instead fires requests on a fixed schedule and
// measures each reply against its *scheduled* send time, so the latency
// a coalescing window or an overloaded server adds is fully visible.
package loadgen

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// Workload names an access-sequence generator.
type Workload string

// Supported workloads.
const (
	// Uniform draws keys uniformly from the universe.
	Uniform Workload = "uniform"
	// Zipf draws keys from a Zipf(s) distribution (hot keys by rank).
	Zipf Workload = "zipf"
	// WorkingSet draws keys with geometrically distributed recency —
	// the temporal-locality regime working-set structures are built for.
	WorkingSet Workload = "working-set"
)

// Config configures one load run. Zero fields take the defaults noted.
type Config struct {
	// Conns is the number of concurrent connections (default 8).
	Conns int
	// Depth is the pipeline depth per connection: how many requests are
	// written before replies are read (default 16; 1 = no pipelining).
	// Pipelining is synchronous, so one batch must fit the transport's
	// buffering (see wire.Client); at typical command sizes any depth up
	// to the server's MaxPipeline is safe.
	Depth int
	// Ops is the total operation count across connections (default 64k).
	Ops int
	// Workload selects the key generator (default Zipf).
	Workload Workload
	// Universe is the key-space size (default 65536).
	Universe int
	// ZipfS is the Zipf skew for the zipf workload (default 0.99; any
	// negative value means 0, i.e. unskewed).
	ZipfS float64
	// MeanRecency is the mean access recency for the working-set
	// workload (default 64).
	MeanRecency int
	// GetFrac is the fraction of GETs; the rest are SETs (default 0.9;
	// any negative value means 0, i.e. a pure-SET workload).
	GetFrac float64
	// ScanFrac is the fraction of commands that are cursor-paged SCANs
	// (default 0). A scan command draws its lower bound from the key
	// generator and reads one page of up to ScanCount pairs spanning
	// ScanSpan key indices. The remaining 1-ScanFrac of commands split
	// GET/SET by GetFrac as before. Scan latencies are reported
	// separately (Report.ScanP50/ScanP99): a page reply is 2·ScanCount+1
	// frames, so folding it into the point-op percentiles would just
	// measure reply size.
	ScanFrac float64
	// ScanCount is the page size (pairs per SCAN) for the scan fraction
	// (default 100).
	ScanCount int
	// ScanSpan is the key-index width of each scan's [lo, hi) window
	// (default 1024).
	ScanSpan int
	// TTLFrac is the fraction of writes issued as SETEX (with a
	// TTLSeconds TTL) instead of plain SET (default 0). Bounded-memory
	// and TTL soaks use it to keep a churn of expiring keys in flight.
	TTLFrac float64
	// TTLSeconds is the TTL, in seconds, of the TTLFrac writes
	// (default 60).
	TTLSeconds int
	// Preload, when set, inserts every universe key before measuring so
	// GETs hit (default off; cmd/wsload turns it on).
	Preload bool
	// Seed seeds the generators (default 1).
	Seed int64
	// Retry, when positive, is the reconnect budget: dial failures back
	// off exponentially (capped, with jitter; see retry.go) for up to
	// this long instead of failing the run, and a connection dropped
	// mid-run is redialed with the interrupted batch reissued. A batch
	// reissue can double-apply SETs/DELs — fine for load generation;
	// the chaos harness does its own exactly-once accounting on top.
	Retry time.Duration
	// OpTimeout, when positive, bounds each pipelined batch (all sends,
	// the flush, and all replies) with a connection deadline, so a
	// wedged or killed server surfaces as an error — which Retry then
	// turns into a reconnect — instead of a worker hung forever.
	OpTimeout time.Duration
	// Rate, when positive, switches to open-loop pacing: the connections
	// together issue Rate operations per second on a fixed schedule
	// (unpipelined, spread evenly across connections with staggered
	// starts), and each operation's latency is measured from its
	// scheduled send time — so queueing delay the server or a coalescing
	// window introduces is not masked by the client's own backoff
	// (no coordinated omission). Depth is ignored in this mode.
	Rate float64
}

func (c Config) withDefaults() Config {
	if c.Conns < 1 {
		c.Conns = 8
	}
	if c.Depth < 1 {
		c.Depth = 16
	}
	if c.Ops < 1 {
		c.Ops = 64 << 10
	}
	if c.Workload == "" {
		c.Workload = Zipf
	}
	if c.Universe < 1 {
		c.Universe = 1 << 16
	}
	if c.ZipfS == 0 {
		c.ZipfS = 0.99
	} else if c.ZipfS < 0 {
		c.ZipfS = 0
	}
	if c.MeanRecency < 1 {
		c.MeanRecency = 64
	}
	if c.GetFrac == 0 {
		c.GetFrac = 0.9
	} else if c.GetFrac < 0 {
		c.GetFrac = 0
	}
	if c.ScanFrac < 0 {
		c.ScanFrac = 0
	}
	if c.TTLFrac < 0 {
		c.TTLFrac = 0
	}
	if c.TTLSeconds < 1 {
		c.TTLSeconds = 60
	}
	if c.ScanCount < 1 {
		c.ScanCount = 100
	}
	if c.ScanSpan < 1 {
		c.ScanSpan = 1024
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Report is the outcome of one load run.
type Report struct {
	Workload Workload `json:"workload"`
	Conns    int      `json:"conns"`
	Depth    int      `json:"depth"`
	// Rate is the open-loop target in ops/s (0 for closed-loop runs);
	// OpsPerSec is what was actually achieved.
	Rate      float64       `json:"rate,omitempty"`
	Ops       int           `json:"ops"`
	Errors    int           `json:"errors"`
	Duration  time.Duration `json:"duration_ns"`
	OpsPerSec float64       `json:"ops_per_sec"`
	// P50..Max are the point-op (GET/SET) latency percentiles; with
	// Config.ScanFrac set, scan pages are excluded here and reported in
	// the Scan* fields instead, so write/read tail latency under scan
	// load is directly visible (E20 in docs/history/EXPERIMENTS_E18-E23.md).
	P50 time.Duration `json:"p50_ns"`
	P95 time.Duration `json:"p95_ns"`
	P99 time.Duration `json:"p99_ns"`
	Max time.Duration `json:"max_ns"`
	// Gets counts GET commands issued and GetHits the ones that found
	// their key. On a bounded-memory or TTL run the hit ratio is the
	// headline cache metric: evictions and expiries surface as misses.
	Gets    int `json:"gets,omitempty"`
	GetHits int `json:"get_hits,omitempty"`
	// Scans counts SCAN commands issued; ScanP50/ScanP99 are their
	// latency percentiles (zero when ScanFrac is 0).
	Scans   int           `json:"scans,omitempty"`
	ScanP50 time.Duration `json:"scan_p50_ns,omitempty"`
	ScanP99 time.Duration `json:"scan_p99_ns,omitempty"`
	// Reconnects counts mid-run redials (only with Config.Retry set).
	Reconnects int `json:"reconnects,omitempty"`
	// GoMaxProcs and GoVersion pin the run's environment so archived
	// report rows (BENCH_*.json) stay comparable across machines and
	// toolchains.
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

// String renders the report as one aligned line.
func (r Report) String() string {
	pacing := fmt.Sprintf("depth=%-3d", r.Depth)
	if r.Rate > 0 {
		pacing = fmt.Sprintf("rate=%-8.0f", r.Rate)
	}
	line := fmt.Sprintf("%-12s conns=%-3d %s ops=%-8d err=%-3d %10.0f ops/s  p50=%-9s p99=%-9s max=%s",
		r.Workload, r.Conns, pacing, r.Ops, r.Errors,
		r.OpsPerSec, r.P50, r.P99, r.Max)
	if r.Gets > 0 {
		line += fmt.Sprintf("  hit=%.1f%%", 100*r.HitRatio())
	}
	if r.Scans > 0 {
		line += fmt.Sprintf("  scans=%d scan-p99=%s", r.Scans, r.ScanP99)
	}
	return line
}

// HitRatio is the fraction of GETs that found their key (0 when the
// run issued none).
func (r Report) HitRatio() float64 {
	if r.Gets == 0 {
		return 0
	}
	return float64(r.GetHits) / float64(r.Gets)
}

// Key renders key index k in the fixed-width form the server stores, so
// lexicographic key order matches numeric order (SCAN-friendly).
func Key(k int) string { return fmt.Sprintf("k%08d", k) }

// genKeys produces one connection's key sequence.
func genKeys(cfg Config, seed int64, n int) ([]int, error) {
	rng := rand.New(rand.NewSource(seed))
	switch cfg.Workload {
	case Uniform:
		return workload.UniformKeys(rng, n, cfg.Universe), nil
	case Zipf:
		return workload.ZipfKeys(rng, n, cfg.Universe, cfg.ZipfS), nil
	case WorkingSet:
		return workload.RecencyBoundedKeys(rng, n, cfg.Universe, cfg.MeanRecency), nil
	default:
		return nil, fmt.Errorf("loadgen: unknown workload %q", cfg.Workload)
	}
}

// Preload inserts every universe key (value "0") over one pipelined
// connection, so a measured run's GETs hit. Run calls it when
// Config.Preload is set; examples share it for their own warm-up.
func Preload(cfg Config, dial func() (net.Conn, error)) error {
	cfg = cfg.withDefaults()
	nc, err := dialRetry(dial, cfg.Retry, rand.New(rand.NewSource(cfg.Seed^0x51a7)))
	if err != nil {
		return err
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	const chunk = 256
	for base := 0; base < cfg.Universe; base += chunk {
		n := chunk
		if base+n > cfg.Universe {
			n = cfg.Universe - base
		}
		for i := 0; i < n; i++ {
			if err := cl.Send("SET", Key(base+i), "0"); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			rep, err := cl.Recv()
			if err != nil {
				return err
			}
			if rep.IsError() {
				return fmt.Errorf("loadgen: preload: %s", rep.Str)
			}
		}
	}
	_, err = cl.Do("QUIT")
	return err
}

// connResult is one connection's measurements: point-op and scan
// latencies separately (see Report.P50).
type connResult struct {
	lats       []time.Duration
	scanLats   []time.Duration
	gets       int
	hits       int
	errs       int
	reconnects int
	err        error
}

// Run executes one load run against whatever dial connects to. In the
// default closed loop, latency is measured per operation as time from
// pipeline submission to that operation's reply (so with depth D it
// includes queueing behind the up-to-D-1 requests ahead of it, as a
// closed-loop client experiences it). With Config.Rate set, the run is
// open-loop: requests fire on a fixed schedule and latency is measured
// from each operation's scheduled send time (no coordinated omission).
func Run(cfg Config, dial func() (net.Conn, error)) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Preload {
		if err := Preload(cfg, dial); err != nil {
			return Report{}, err
		}
	}
	perConn := cfg.Ops / cfg.Conns
	if perConn < 1 {
		perConn = 1
	}
	results := make([]connResult, cfg.Conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < cfg.Conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := cfg.Seed + int64(i)*7919
			if cfg.Rate > 0 {
				// Per-connection interval so the fleet sums to Rate;
				// staggered starts spread the global schedule evenly.
				interval := time.Duration(float64(cfg.Conns) / cfg.Rate * float64(time.Second))
				offset := time.Duration(float64(i) / cfg.Rate * float64(time.Second))
				results[i] = runConnRate(cfg, seed, perConn, interval, offset, dial)
			} else {
				results[i] = runConn(cfg, seed, perConn, dial)
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)

	var all, scans []time.Duration
	errs, reconnects := 0, 0
	for _, r := range results {
		if r.err != nil {
			return Report{}, r.err
		}
		all = append(all, r.lats...)
		scans = append(scans, r.scanLats...)
		errs += r.errs
		reconnects += r.reconnects
	}
	gets, hits := 0, 0
	for _, r := range results {
		gets += r.gets
		hits += r.hits
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	sort.Slice(scans, func(a, b int) bool { return scans[a] < scans[b] })
	total := len(all) + len(scans)
	rep := Report{
		Workload:   cfg.Workload,
		Conns:      cfg.Conns,
		Depth:      reportDepth(cfg),
		Rate:       cfg.Rate,
		Ops:        total,
		Errors:     errs,
		Duration:   wall,
		Gets:       gets,
		GetHits:    hits,
		Scans:      len(scans),
		Reconnects: reconnects,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	if wall > 0 {
		rep.OpsPerSec = float64(total) / wall.Seconds()
	}
	if len(all) > 0 {
		rep.P50 = percentile(all, 0.50)
		rep.P95 = percentile(all, 0.95)
		rep.P99 = percentile(all, 0.99)
		rep.Max = all[len(all)-1]
	}
	if len(scans) > 0 {
		rep.ScanP50 = percentile(scans, 0.50)
		rep.ScanP99 = percentile(scans, 0.99)
	}
	return rep, nil
}

func percentile(sorted []time.Duration, q float64) time.Duration {
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// reportDepth is the pipeline depth a report should carry: the open-loop
// mode is unpipelined by construction.
func reportDepth(cfg Config) int {
	if cfg.Rate > 0 {
		return 1
	}
	return cfg.Depth
}

// opKind is one scheduled command's kind.
type opKind uint8

const (
	opGet opKind = iota
	opSet
	opSetex
	opScan
)

// planOps draws each operation's kind up front (scan by ScanFrac, then
// GET/SET by GetFrac, with TTLFrac of the writes upgraded to SETEX), so
// paced senders and their reply readers agree on which latencies are
// scans without sharing an RNG.
func planOps(cfg Config, rng *rand.Rand, n int) []opKind {
	kinds := make([]opKind, n)
	for i := range kinds {
		r := rng.Float64()
		switch {
		case r < cfg.ScanFrac:
			kinds[i] = opScan
		case rng.Float64() < cfg.GetFrac:
			kinds[i] = opGet
		case rng.Float64() < cfg.TTLFrac:
			kinds[i] = opSetex
		default:
			kinds[i] = opSet
		}
	}
	return kinds
}

// sendOp writes one command for key index k.
func sendOp(cl *wire.Client, cfg Config, kind opKind, k int) error {
	switch kind {
	case opScan:
		return cl.Send("SCAN", Key(k), Key(k+cfg.ScanSpan), strconv.Itoa(cfg.ScanCount))
	case opGet:
		return cl.Send("GET", Key(k))
	case opSetex:
		return cl.Send("SETEX", Key(k), strconv.Itoa(cfg.TTLSeconds), "v")
	default:
		return cl.Send("SET", Key(k), "v")
	}
}

// runConnRate drives one open-loop connection: a sender goroutine fires
// one request at each scheduled instant (start+offset, then every
// interval) regardless of replies, while this goroutine reads replies in
// order and measures each against its scheduled send time. A sender that
// falls behind still charges the delay to the operation — that is the
// point: no coordinated omission.
func runConnRate(cfg Config, seed int64, n int, interval, offset time.Duration, dial func() (net.Conn, error)) connResult {
	keys, err := genKeys(cfg, seed, n)
	if err != nil {
		return connResult{err: err}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	// Open-loop runs retry only the initial dial: a mid-run reconnect
	// would have to replay the fixed schedule's backlog, distorting the
	// very latencies the mode exists to keep honest.
	nc, err := dialRetry(dial, cfg.Retry, rng)
	if err != nil {
		return connResult{err: err}
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	kinds := planOps(cfg, rng, len(keys))
	res := connResult{lats: make([]time.Duration, 0, n)}
	start := time.Now().Add(offset)
	schedule := func(i int) time.Time { return start.Add(time.Duration(i) * interval) }

	var sendErr error
	senderDone := make(chan struct{})
	go func() {
		// Sender half: wire.Client's writer state is independent of its
		// reader state, so pacing writes here while the main goroutine
		// decodes replies is race-free. On error the connection is closed
		// to unblock the reply reader.
		defer close(senderDone)
		for i, k := range keys {
			if d := time.Until(schedule(i)); d > 0 {
				time.Sleep(d)
			}
			sendErr = sendOp(cl, cfg, kinds[i], k)
			if sendErr == nil {
				sendErr = cl.Flush()
			}
			if sendErr != nil {
				nc.Close()
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		rep, err := cl.Recv()
		if err != nil {
			// Close before joining the sender: it may have most of the
			// schedule still ahead of it, and the closed connection makes
			// its next send fail instead of letting a broken run linger
			// for the full schedule. Report the genuine failure: when the
			// sender died first, this read error is just the close it
			// performed, so surface sendErr instead.
			nc.Close()
			<-senderDone
			if sendErr != nil && (errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe)) {
				err = sendErr
			}
			res.err = err
			return res
		}
		if rep.IsError() {
			res.errs++
		} else if kinds[i] == opGet {
			res.gets++
			if rep.Kind != wire.NilReply {
				res.hits++
			}
		}
		if kinds[i] == opScan {
			res.scanLats = append(res.scanLats, time.Since(schedule(i)))
		} else {
			res.lats = append(res.lats, time.Since(schedule(i)))
		}
	}
	<-senderDone
	cl.Do("QUIT")
	return res
}

// runConn drives one connection: write Depth requests, flush, read
// Depth replies, repeat. With Config.Retry set, a batch that fails is
// reissued over a fresh (backoff-dialed) connection instead of ending
// the run; its latencies then include the outage, as a real client's
// would.
func runConn(cfg Config, seed int64, n int, dial func() (net.Conn, error)) connResult {
	keys, err := genKeys(cfg, seed, n)
	if err != nil {
		return connResult{err: err}
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9e3779b9))
	nc, err := dialRetry(dial, cfg.Retry, rng)
	if err != nil {
		return connResult{err: err}
	}
	defer func() { nc.Close() }()
	cl := wire.NewClient(nc)
	kinds := planOps(cfg, rng, len(keys))
	res := connResult{lats: make([]time.Duration, 0, n)}

	// batch issues keys[off:end] once; any error aborts mid-batch.
	batch := func(off, end int, t0 time.Time) error {
		armOpDeadline(nc, cfg)
		for i, k := range keys[off:end] {
			if err := sendOp(cl, cfg, kinds[off+i], k); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for i := off; i < end; i++ {
			rep, err := cl.Recv()
			if err != nil {
				return err
			}
			if rep.IsError() {
				res.errs++
			} else if kinds[i] == opGet {
				res.gets++
				if rep.Kind != wire.NilReply {
					res.hits++
				}
			}
			if kinds[i] == opScan {
				res.scanLats = append(res.scanLats, time.Since(t0))
			} else {
				res.lats = append(res.lats, time.Since(t0))
			}
		}
		return nil
	}

	for off := 0; off < len(keys); off += cfg.Depth {
		end := off + cfg.Depth
		if end > len(keys) {
			end = len(keys)
		}
		t0 := time.Now()
		retries := 0
		for {
			lats, scanLats := len(res.lats), len(res.scanLats)
			gets, hits := res.gets, res.hits
			err := batch(off, end, t0)
			if err == nil {
				break
			}
			if cfg.Retry <= 0 || retries >= chunkRetryCap {
				res.err = err
				return res
			}
			// Drop the partial batch's latencies and reissue the whole
			// batch over a fresh connection; replies already consumed are
			// measured again — the reissue is the measurement.
			res.lats, res.scanLats = res.lats[:lats], res.scanLats[:scanLats]
			res.gets, res.hits = gets, hits
			retries++
			res.reconnects++
			nc.Close()
			if nc, err = dialRetry(dial, cfg.Retry, rng); err != nil {
				res.err = err
				return res
			}
			cl = wire.NewClient(nc)
		}
	}
	armOpDeadline(nc, cfg)
	cl.Do("QUIT")
	return res
}
