package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// rig is what every bed of one invocation shares.
type rig struct {
	bin      string   // built wsd
	procs    int      // N = min(nproc, 4): shards, connections and both GOMAXPROCS
	seed     int64    // workload seed
	workDir  string   // data directories and child logs, removed at exit
	outDir   string   // what outlives the run: result, trace, hang dumps
	wsdFlags []string // ad-hoc extra wsd flags; the standing runs pass none
}

// bed is one workload's fresh server with its N closed-loop clients.
type bed struct {
	rig     *rig
	w       *workload
	id      int // distinguishes this bed's log and data directory names
	srv     *wsdProc
	args    []string
	dataDir string
	clients []*client
	setupS  float64 // exec of wsd → end of warm-up
	// userBytes counts key+value bytes of every acked SET since exec,
	// preload and warm-up included: the denominator of write amplification.
	userBytes int64
	starts    int // servers started so far: one, plus one per restart
}

var bedCount int // beds created by this process

// newBed starts a server for w, preloads the universe and warms up.
func newBed(r *rig, w *workload, traced bool) (*bed, error) {
	bedCount++
	b := &bed{rig: r, w: w, id: bedCount}
	b.args = []string{"-shards", strconv.Itoa(r.procs)}
	if w.Durable {
		b.dataDir = filepath.Join(r.workDir, fmt.Sprintf("data-%s-%d", w.Name, b.id))
		b.args = append(b.args, "-data-dir", b.dataDir, "-fsync", "always")
	}
	if w.Budgeted {
		b.args = append(b.args, "-max-bytes", strconv.Itoa(w.Universe*residentPerItem/10))
	}
	if traced {
		b.args = append(b.args, "-admin", "127.0.0.1:0", "-work-counter")
	}
	b.args = append(b.args, r.wsdFlags...)
	if err := b.start(); err != nil {
		return nil, err
	}
	cdf := []float64(nil)
	if w.Dist == distZipf {
		cdf = zipfCDF(w.Universe, zipfS)
	}
	for i := 0; i < r.procs; i++ {
		wc, err := dialWire(b.srv.addr)
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, newClient(i, r.procs, w, wc, cdf, r.seed))
	}
	if err := b.each(func(c *client) error { return c.preload() }); err != nil {
		b.close()
		return nil, fmt.Errorf("%s: preload: %w", w.Name, err)
	}
	b.userBytes = int64(w.Universe) * (keyBytes + valueBytes)
	warm := b.round(0, int64(w.WarmOps), false)
	if warm.failed > 0 {
		// A warm-up that already fails is reported, not fatal: the timed
		// rounds will show the same violations with their counts.
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d warm-up ops failed\n", w.Name, warm.failed, warm.attempted)
	}
	b.setupS = time.Since(b.srv.execAt).Seconds()
	return b, nil
}

func (b *bed) start() error {
	b.starts++
	logPath := filepath.Join(b.rig.workDir, fmt.Sprintf("wsd-%s-%d-%d.log", b.w.Name, b.id, b.starts))
	srv, err := startWsd(b.rig.bin, b.rig.procs, logPath, b.args...)
	if err != nil {
		return fmt.Errorf("%s: %w", b.w.Name, err)
	}
	b.srv = srv
	return nil
}

// each runs f on every client concurrently and returns the first error.
func (b *bed) each(f func(c *client) error) error {
	errs := make([]error, len(b.clients))
	var wg sync.WaitGroup
	for i, c := range b.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(c)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// roundStats is one round's outcome, merged over connections.
type roundStats struct {
	seconds   float64
	ops       int64
	opsPerS   float64             // ops / seconds
	p50, p99  [numOpKinds]float64 // ns, over every sample of the round
	latN      [numOpKinds]int64
	cpuTicks  int64
	batchP50  float64 // ns, pipeline submit → last reply
	gets      int64
	hits      int64
	attempted int64
	failed    int64
	viol      [numViolations]int64
	spans     []span
	aborted   string // why the watchdog ended the round early, if it did
}

// round runs every client for dur (a timed round) or for budget ops per
// connection (warm-up, dur 0) under the watchdog: a child that exits
// ends the round at once, a child that stalls ends it at twice the round
// length, and either way every unanswered operation counts as failed.
func (b *bed) round(dur time.Duration, budget int64, keepSpans bool) roundStats {
	tallies := make([]*tally, len(b.clients))
	for i := range tallies {
		tallies[i] = &tally{keepSpans: keepSpans}
	}
	watchdog := 2 * dur
	if budget > 0 {
		watchdog = 120 * time.Second
	}
	ticks0 := b.srv.cpuTicks()
	start := time.Now()
	finished := make(chan struct{})
	go func() {
		b.each(func(c *client) error {
			c.run(start, dur, budget, tallies[c.id])
			return nil
		})
		close(finished)
	}()
	var rs roundStats
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	select {
	case <-finished:
		// Clients of a child that died see their sockets close before
		// the child is reaped; give the reaper a moment to name the cause.
		for _, c := range b.clients {
			if c.dead && rs.aborted == "" {
				select {
				case <-b.srv.exited:
					rs.aborted = "wsd exited"
				case <-time.After(time.Second):
					rs.aborted = "connection lost"
				}
			}
		}
	case <-b.srv.exited:
		rs.aborted = "wsd exited"
	case <-timer.C:
		rs.aborted = "watchdog: no progress within " + watchdog.String()
		b.saveHangDump()
	}
	if rs.aborted != "" {
		// Closing the sockets fails every blocked read and write, which
		// is how the client goroutines learn the round is over.
		for _, c := range b.clients {
			c.wc.nc.Close()
		}
		<-finished
		fmt.Fprintf(os.Stderr, "bench: %s: round aborted: %s\n", b.w.Name, rs.aborted)
	}
	rs.seconds = time.Since(start).Seconds()
	if b.srv.alive() {
		rs.cpuTicks = b.srv.cpuTicks() - ticks0
	}
	b.merge(&rs, tallies)
	return rs
}

// saveHangDump turns a stalled child into evidence: its goroutine dump
// lands in its log, which is copied to the output directory.
func (b *bed) saveHangDump() {
	b.srv.dumpAndKill()
	raw, err := os.ReadFile(b.srv.logPath)
	if err != nil {
		return
	}
	dst := filepath.Join(b.rig.outDir, "hang-"+filepath.Base(b.srv.logPath))
	if os.WriteFile(dst, raw, 0o644) == nil {
		fmt.Fprintf(os.Stderr, "bench: %s: goroutine dump of the stalled wsd saved to %s\n", b.w.Name, dst)
	}
}

func (b *bed) merge(rs *roundStats, tallies []*tally) {
	var batch hist
	var lat [numOpKinds]hist
	for _, t := range tallies {
		batch.merge(&t.batchRTT)
		for k := range lat {
			lat[k].merge(&t.lat[k])
		}
		rs.ops += t.ops
		rs.gets += t.gets
		rs.hits += t.hits
		rs.attempted += t.attempted
		rs.failed += t.failed
		for v := range t.viol {
			rs.viol[v] += t.viol[v]
		}
		b.userBytes += t.userBytes
		rs.spans = append(rs.spans, t.spans...)
	}
	rs.opsPerS = ratio(float64(rs.ops), rs.seconds)
	rs.batchP50 = batch.quantile(0.5)
	for k := range lat {
		rs.latN[k] = lat[k].n
		rs.p50[k] = lat[k].quantile(0.50)
		rs.p99[k] = lat[k].quantile(0.99)
	}
}

// restartAudit is the durability check: SIGKILL the server, restart it
// from its data directory, and have every client re-read the keys it
// wrote. It returns restart → first reply in seconds and the audit's
// counts. The page cache survives a process kill, so this proves replay
// and ordering, not that the bytes reached the platter.
func (b *bed) restartAudit() (recoveryS float64, audit roundStats, err error) {
	if b.srv.alive() {
		b.srv.kill()
	}
	t0 := time.Now()
	if err := b.start(); err != nil {
		return 0, audit, err
	}
	wcs := make([]*wireConn, len(b.clients))
	for i := range wcs {
		if wcs[i], err = dialWire(b.srv.addr); err != nil {
			return 0, audit, err
		}
		defer wcs[i].nc.Close()
	}
	wcs[0].w.WriteCommand("PING")
	if err := wcs[0].w.Flush(); err != nil {
		return 0, audit, err
	}
	if rep, err := wcs[0].r.ReadReply(); err != nil || rep.Kind != wire.SimpleReply {
		return 0, audit, fmt.Errorf("%s: PING after restart: %v %v", b.w.Name, rep, err)
	}
	recoveryS = time.Since(t0).Seconds()
	tallies := make([]*tally, len(b.clients))
	err = b.each(func(c *client) error {
		tallies[c.id] = &tally{}
		return c.audit(wcs[c.id], tallies[c.id])
	})
	for _, t := range tallies {
		audit.attempted += t.attempted
		audit.failed += t.failed
		for v := range t.viol {
			audit.viol[v] += t.viol[v]
		}
	}
	return recoveryS, audit, err
}

// walBytes is what the data directory holds on disk: WAL segments plus
// checkpoints. Zero for a non-durable bed.
func (b *bed) walBytes() int64 {
	if b.dataDir == "" {
		return 0
	}
	return dirBytes(b.dataDir)
}

// close stops the server and removes its data directory.
func (b *bed) close() {
	for _, c := range b.clients {
		c.wc.nc.Close()
	}
	if b.srv != nil {
		b.srv.kill()
	}
	if b.dataDir != "" {
		os.RemoveAll(b.dataDir)
	}
}
