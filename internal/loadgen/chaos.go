package loadgen

// Chaos harness: the durability acceptance oracle. It spawns a real wsd
// process over a data directory, drives concurrent write traffic at it,
// SIGKILLs the process mid-load at a random-ish point (once enough
// writes are acked), restarts it, lets the workers ride through the
// outage on the retry path, and then audits the recovered state against
// a client-side model:
//
//   - every acked SET must be present with its acked value, and every
//     acked DEL absent, unless a later unacked op on the same key makes
//     the outcome legitimately ambiguous;
//   - an op that was sent but never acked may or may not have landed —
//     both outcomes are allowed, but nothing else is;
//   - any key the workers never wrote is a phantom;
//   - a key whose TTL deadline passed before the audit must be gone: a
//     crash and WAL replay must not resurrect it (expire records carry
//     absolute deadlines) nor extend its life.
//
// With MaxBytes set the spawned server runs in bounded-memory cache
// mode, where an acked SET may be legitimately evicted — absence then
// stops being a violation (it is counted instead), but a corrupt value,
// a resurrected DEL and a resurrected expired key still are.
//
// The model is exact because each worker owns a disjoint key range and
// every SET carries a globally unique value, and because replies on one
// connection come back in order: acking op i resolves all of that
// connection's earlier ops, so the unresolved set is precisely the
// sent-unacked suffix at the moment the connection died.

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ChaosConfig configures one kill/restart run.
type ChaosConfig struct {
	// ServerBin is the wsd binary to spawn. Required.
	ServerBin string
	// DataDir is the durability directory handed to -data-dir. Required.
	DataDir string
	// Addr is the address the server listens on (host:port). Required.
	Addr string
	// SnapshotBytes is passed to -snapshot-bytes (default 256 KiB, small
	// enough that the run exercises checkpoints and pruning too).
	SnapshotBytes int64
	// ServerArgs are extra wsd flags.
	ServerArgs []string
	// Conns is the worker count (default 4).
	Conns int
	// OpsPerConn is each worker's op budget (default 4096).
	OpsPerConn int
	// Universe is each worker's private key-space size (default 512).
	Universe int
	// Depth is the per-worker pipeline depth (default 8).
	Depth int
	// KillAcked fires the SIGKILL once this many ops are acked fleet-wide
	// (default: a third of the total budget).
	KillAcked int
	// TTLKeys is how many short-TTL keys are SETEXed before the load so
	// the audit can assert none of them survives the crash once their
	// deadline passes (default 64; negative disables the expiry audit).
	TTLKeys int
	// MaxBytes, when positive, runs the spawned server with -max-bytes:
	// bounded-memory cache mode, under which an acked SET may be evicted
	// (see the package comment on the relaxed audit).
	MaxBytes int64
	// Seed seeds the per-worker op streams (default 1).
	Seed int64
	// Logf receives progress lines (default: none).
	Logf func(format string, args ...any)
}

func (c ChaosConfig) withDefaults() (ChaosConfig, error) {
	if c.ServerBin == "" || c.DataDir == "" || c.Addr == "" {
		return c, fmt.Errorf("loadgen: chaos: ServerBin, DataDir and Addr are required")
	}
	if c.SnapshotBytes == 0 {
		c.SnapshotBytes = 256 << 10
	}
	if c.Conns < 1 {
		c.Conns = 4
	}
	if c.OpsPerConn < 1 {
		c.OpsPerConn = 4096
	}
	if c.Universe < 1 {
		c.Universe = 512
	}
	if c.Depth < 1 {
		c.Depth = 8
	}
	if c.KillAcked < 1 {
		c.KillAcked = c.Conns * c.OpsPerConn / 3
	}
	if c.TTLKeys == 0 {
		c.TTLKeys = 64
	} else if c.TTLKeys < 0 {
		c.TTLKeys = 0
	}
	// The workers stop at their op budget; a trigger they can never
	// reach would hang the killer. Keep headroom for unacked losses.
	if max := c.Conns * c.OpsPerConn / 2; c.KillAcked > max {
		c.KillAcked = max
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// ChaosReport is the audit outcome. The run passes iff Violations is
// empty; the counts exist so a passing run can prove it actually
// exercised the crash (Kills, Reconnects, Unresolved all non-zero).
type ChaosReport struct {
	Acked      int64 `json:"acked"`
	Unresolved int   `json:"unresolved"` // ops sent but never acked
	Kills      int   `json:"kills"`
	Reconnects int64 `json:"reconnects"`
	DumpKeys   int   `json:"dump_keys"`
	// TTLKeys is how many short-TTL keys the expiry audit planted; each
	// must be gone (not resurrected, not extended) once its deadline
	// passes the crash.
	TTLKeys int `json:"ttl_keys,omitempty"`
	// Evicted counts acked SETs absent from the dump on a bounded-memory
	// (MaxBytes) run — legitimate cache evictions there, not violations.
	Evicted int `json:"evicted,omitempty"`
	// Violations describe every audit failure: lost acked writes,
	// resurrected deletes, corrupt values, phantom keys.
	Violations []string `json:"violations,omitempty"`
}

// chaosState is one key's possible durable outcome.
type chaosState struct {
	val     string
	present bool
}

// chaosModel is one worker's account of its own key range.
type chaosModel struct {
	acked      map[string]chaosState   // last acked op's effect per key
	unresolved map[string][]chaosState // sent-unacked effects, oldest first
}

// chaosOp is one sent-but-not-yet-acked operation.
type chaosOp struct {
	key string
	st  chaosState
}

// chaosProc owns the wsd child process across the kill/restart.
type chaosProc struct {
	mu  sync.Mutex
	cmd *exec.Cmd
	cfg ChaosConfig
}

func (p *chaosProc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	args := []string{
		"-addr", p.cfg.Addr,
		"-data-dir", p.cfg.DataDir,
		"-fsync", "always", // the one policy under which an acked write survives SIGKILL
		"-snapshot-bytes", strconv.FormatInt(p.cfg.SnapshotBytes, 10),
	}
	if p.cfg.MaxBytes > 0 {
		args = append(args, "-max-bytes", strconv.FormatInt(p.cfg.MaxBytes, 10))
	}
	args = append(args, p.cfg.ServerArgs...)
	cmd := exec.Command(p.cfg.ServerBin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return err
	}
	p.cmd = cmd
	return nil
}

// kill SIGKILLs the child and reaps it — no shutdown path runs, which
// is the entire point.
func (p *chaosProc) kill() error {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	cmd.Wait() // reap; the error is the expected "killed"
	return nil
}

func (p *chaosProc) stop() {
	p.mu.Lock()
	cmd := p.cmd
	p.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
		cmd.Wait()
	}
}

// chaosDial dials the server with the retry path under test.
func chaosDial(addr string, seed int64, budget time.Duration) (net.Conn, error) {
	rng := rand.New(rand.NewSource(seed))
	return dialRetry(func() (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	}, budget, rng)
}

// waitReady blocks until the server answers PING.
func waitReady(addr string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		nc, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			cl := wire.NewClient(nc)
			rep, perr := cl.Do("PING")
			nc.Close()
			if perr == nil && rep.Str == "PONG" {
				return nil
			}
			err = perr
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("loadgen: chaos: server not ready after %s: %v", budget, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Chaos runs one kill/restart durability audit. Any returned error is a
// harness failure (could not run); durability failures land in
// Report.Violations.
func Chaos(cfg ChaosConfig) (ChaosReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return ChaosReport{}, err
	}
	proc := &chaosProc{cfg: cfg}
	if err := proc.start(); err != nil {
		return ChaosReport{}, fmt.Errorf("loadgen: chaos: start server: %w", err)
	}
	defer proc.stop()
	if err := waitReady(cfg.Addr, 15*time.Second); err != nil {
		return ChaosReport{}, err
	}

	// Plant the short-TTL keys before the load: their inserts and
	// absolute expire deadlines reach the WAL, and whatever side of the
	// deadline the crash lands on, the audit (which waits the deadline
	// out) must find every one of them gone.
	ttlDeadline, err := chaosExpire(cfg)
	if err != nil {
		return ChaosReport{}, err
	}

	var (
		acked      atomic.Int64
		reconnects atomic.Int64
		killed     = make(chan struct{}) // closed once the restart is done
		rep        ChaosReport
	)

	// The killer: one SIGKILL at the acked-count trigger, then restart.
	killErr := make(chan error, 1)
	workersDone := make(chan struct{})
	go func() {
		for acked.Load() < int64(cfg.KillAcked) {
			select {
			case <-workersDone:
				killErr <- fmt.Errorf("loadgen: chaos: workers finished at %d acked before the kill trigger %d",
					acked.Load(), cfg.KillAcked)
				return
			default:
				time.Sleep(time.Millisecond)
			}
		}
		cfg.Logf("chaos: SIGKILL at %d acked ops", acked.Load())
		if err := proc.kill(); err != nil {
			killErr <- fmt.Errorf("loadgen: chaos: kill: %w", err)
			return
		}
		rep.Kills++
		if err := proc.start(); err != nil {
			killErr <- fmt.Errorf("loadgen: chaos: restart: %w", err)
			return
		}
		if err := waitReady(cfg.Addr, 15*time.Second); err != nil {
			killErr <- err
			return
		}
		cfg.Logf("chaos: server restarted")
		close(killed)
		killErr <- nil
	}()

	// The workers.
	models := make([]*chaosModel, cfg.Conns)
	workErrs := make([]error, cfg.Conns)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Conns; w++ {
		models[w] = &chaosModel{
			acked:      make(map[string]chaosState),
			unresolved: make(map[string][]chaosState),
		}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			workErrs[w] = chaosWorker(cfg, w, models[w], &acked, &reconnects)
		}(w)
	}
	wg.Wait()
	close(workersDone)
	if err := <-killErr; err != nil {
		return ChaosReport{}, err
	}
	<-killed // the kill must have happened for the run to mean anything
	for w, err := range workErrs {
		if err != nil {
			return ChaosReport{}, fmt.Errorf("loadgen: chaos: worker %d: %w", w, err)
		}
	}

	rep.Acked = acked.Load()
	rep.Reconnects = reconnects.Load()
	rep.TTLKeys = cfg.TTLKeys
	for _, m := range models {
		rep.Unresolved += len(m.unresolved)
	}

	// Wait out the planted TTLs (measured from after their SETEX acks,
	// so the server-side deadlines are strictly earlier), then audit the
	// recovered, restarted server against the model.
	if cfg.TTLKeys > 0 {
		if wait := time.Until(ttlDeadline.Add(200 * time.Millisecond)); wait > 0 {
			cfg.Logf("chaos: waiting %s for the planted TTLs to pass", wait.Round(time.Millisecond))
			time.Sleep(wait)
		}
	}
	dump, err := chaosDump(cfg)
	if err != nil {
		return ChaosReport{}, err
	}
	rep.DumpKeys = len(dump)
	rep.Violations = chaosAudit(models, dump, cfg.MaxBytes > 0, &rep)
	ttlViolations, err := chaosAuditTTL(cfg, dump)
	if err != nil {
		return ChaosReport{}, err
	}
	rep.Violations = append(rep.Violations, ttlViolations...)
	cfg.Logf("chaos: audit: %d acked, %d unresolved ops, %d reconnects, %d live keys, %d ttl keys, %d evicted, %d violations",
		rep.Acked, rep.Unresolved, rep.Reconnects, rep.DumpKeys, rep.TTLKeys, rep.Evicted, len(rep.Violations))
	return rep, nil
}

// chaosTTLKey renders expiry-audit key j. The "cx" prefix sorts after
// every worker range ("c%02d") and inside the dump's ["c", "d") window.
func chaosTTLKey(j int) string { return fmt.Sprintf("cx-%05d", j) }

// chaosExpire plants cfg.TTLKeys keys with a 1-second SETEX over one
// pipelined connection and returns the client-side moment by which all
// their server-side deadlines are guaranteed to have been set — the
// returned time is taken after the acks, so server deadline <= it + 1s.
func chaosExpire(cfg ChaosConfig) (time.Time, error) {
	if cfg.TTLKeys == 0 {
		return time.Time{}, nil
	}
	nc, err := chaosDial(cfg.Addr, cfg.Seed^0x77f1e, 15*time.Second)
	if err != nil {
		return time.Time{}, err
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	for j := 0; j < cfg.TTLKeys; j++ {
		if err := cl.Send("SETEX", chaosTTLKey(j), "1", "ephemeral"); err != nil {
			return time.Time{}, err
		}
	}
	if err := cl.Flush(); err != nil {
		return time.Time{}, err
	}
	for j := 0; j < cfg.TTLKeys; j++ {
		rep, err := cl.Recv()
		if err != nil {
			return time.Time{}, err
		}
		if rep.IsError() {
			return time.Time{}, fmt.Errorf("loadgen: chaos: SETEX: %s", rep.Str)
		}
	}
	deadline := time.Now().Add(time.Second)
	cl.Do("QUIT")
	return deadline, nil
}

// chaosAuditTTL asserts every planted short-TTL key is dead on both
// read paths: absent from the SCAN dump (ghost filtering) and a nil
// GET (read-time enforcement). A hit on either is a resurrection — the
// exact bug class absolute WAL deadlines exist to prevent.
func chaosAuditTTL(cfg ChaosConfig, dump map[string]string) ([]string, error) {
	if cfg.TTLKeys == 0 {
		return nil, nil
	}
	var violations []string
	nc, err := chaosDial(cfg.Addr, cfg.Seed^0xdead1, 15*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	for j := 0; j < cfg.TTLKeys; j++ {
		key := chaosTTLKey(j)
		if got, ok := dump[key]; ok {
			violations = append(violations,
				fmt.Sprintf("key %s: expired before the audit, resurrected in SCAN as %q", key, got))
		}
		rep, err := cl.Do("GET", key)
		if err != nil {
			return violations, fmt.Errorf("loadgen: chaos: ttl audit GET: %w", err)
		}
		if rep.Kind != wire.NilReply {
			violations = append(violations,
				fmt.Sprintf("key %s: expired before the audit, GET still answers %q", key, rep.Str))
		}
	}
	cl.Do("QUIT")
	return violations, nil
}

// chaosKey renders worker w's key j; worker ranges are disjoint by the
// prefix, and "c" sorts the whole space into one SCAN window.
func chaosKey(w, j int) string { return fmt.Sprintf("c%02d-%05d", w, j) }

// chaosWorker drives one connection's op budget, riding through the
// kill by reconnecting; it maintains the worker's model as replies
// arrive.
func chaosWorker(cfg ChaosConfig, w int, m *chaosModel, acked, reconnects *atomic.Int64) error {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
	nc, err := chaosDial(cfg.Addr, cfg.Seed+int64(w), 30*time.Second)
	if err != nil {
		return err
	}
	defer func() { nc.Close() }()
	cl := wire.NewClient(nc)

	// crash moves every sent-unacked op into the unresolved set and
	// reconnects. Consecutive failures are capped so a genuinely broken
	// server can't spin forever.
	pending := make([]chaosOp, 0, cfg.Depth)
	seq := 0
	crash := func() error {
		for _, op := range pending {
			m.unresolved[op.key] = append(m.unresolved[op.key], op.st)
		}
		pending = pending[:0]
		reconnects.Add(1)
		nc.Close()
		var err error
		if nc, err = chaosDial(cfg.Addr, cfg.Seed+int64(w)+int64(seq), 30*time.Second); err != nil {
			return err
		}
		cl = wire.NewClient(nc)
		return nil
	}

	for sent, failures := 0, 0; sent < cfg.OpsPerConn; {
		depth := cfg.Depth
		if left := cfg.OpsPerConn - sent; depth > left {
			depth = left
		}
		nc.SetDeadline(time.Now().Add(10 * time.Second))
		batchErr := func() error {
			for i := 0; i < depth; i++ {
				j := rng.Intn(cfg.Universe)
				key := chaosKey(w, j)
				var op chaosOp
				var err error
				if rng.Intn(4) == 0 {
					op = chaosOp{key: key, st: chaosState{}}
					err = cl.Send("DEL", key)
				} else {
					val := fmt.Sprintf("v%d.%d", w, seq)
					op = chaosOp{key: key, st: chaosState{val: val, present: true}}
					err = cl.Send("SET", key, val)
				}
				if err != nil {
					return err
				}
				seq++
				pending = append(pending, op)
			}
			if err := cl.Flush(); err != nil {
				return err
			}
			for len(pending) > 0 {
				rep, err := cl.Recv()
				if err != nil {
					return err
				}
				if rep.IsError() {
					return fmt.Errorf("server error reply: %s", rep.Str)
				}
				// In-order replies: the front of the queue is acked, and
				// the ack supersedes any older unresolved state of its key.
				op := pending[0]
				pending = pending[1:]
				m.acked[op.key] = op.st
				delete(m.unresolved, op.key)
				acked.Add(1)
			}
			return nil
		}()
		if batchErr != nil {
			if failures++; failures > 8 {
				return fmt.Errorf("giving up after %d consecutive batch failures: %w", failures, batchErr)
			}
			if err := crash(); err != nil {
				return err
			}
		} else {
			failures = 0
		}
		sent += depth // unacked ops are modeled, never resent
	}
	cl.Do("QUIT")
	return nil
}

// chaosDump pages the whole chaos key space out of the server.
func chaosDump(cfg ChaosConfig) (map[string]string, error) {
	nc, err := chaosDial(cfg.Addr, cfg.Seed^0xd00d, 15*time.Second)
	if err != nil {
		return nil, err
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	dump := make(map[string]string)
	cursor := ""
	for {
		args := []string{"SCAN", "c", "d", "1000"}
		if cursor != "" {
			args = append(args, cursor)
		}
		rep, err := cl.Do(args...)
		if err != nil {
			return nil, fmt.Errorf("loadgen: chaos: dump scan: %w", err)
		}
		if rep.Kind != wire.ArrayReply || len(rep.Elems) < 1 || len(rep.Elems)%2 == 0 {
			return nil, fmt.Errorf("loadgen: chaos: malformed scan reply (%d elems)", len(rep.Elems))
		}
		for i := 1; i+1 < len(rep.Elems); i += 2 {
			dump[rep.Elems[i].Str] = rep.Elems[i+1].Str
		}
		cursor = rep.Elems[0].Str
		if cursor == "" {
			return dump, nil
		}
	}
}

// chaosAudit diffs the dumped server state against every worker model.
// With lossy set (bounded-memory server), absence of an acked SET is a
// legitimate eviction and is counted on rep instead of flagged — but a
// wrong value or a resurrected DEL is still corruption: the budget only
// ever removes keys, it never invents or revives them.
func chaosAudit(models []*chaosModel, dump map[string]string, lossy bool, rep *ChaosReport) []string {
	var violations []string
	add := func(format string, args ...any) {
		if len(violations) < 32 { // enough to diagnose; not megabytes
			violations = append(violations, fmt.Sprintf(format, args...))
		}
	}
	touched := make(map[string]bool, len(dump))
	for _, m := range models {
		for key, st := range m.acked {
			touched[key] = true
			got, present := dump[key]
			if extra := m.unresolved[key]; len(extra) > 0 {
				// Ambiguous: the acked state or any unacked successor
				// (or, on a lossy run, an eviction).
				ok := present == st.present && (!present || got == st.val)
				ok = ok || (lossy && !present)
				for _, u := range extra {
					ok = ok || (present == u.present && (!present || got == u.val))
				}
				if !ok {
					add("key %s: got (%q, %v), not the acked state (%q, %v) or any of %d unacked successors",
						key, got, present, st.val, st.present, len(extra))
				}
				continue
			}
			switch {
			case st.present && !present:
				if lossy {
					rep.Evicted++
				} else {
					add("key %s: acked SET %q LOST", key, st.val)
				}
			case st.present && got != st.val:
				add("key %s: acked value %q, recovered %q", key, st.val, got)
			case !st.present && present:
				add("key %s: acked DEL resurrected as %q", key, got)
			}
		}
		// Keys with only unresolved history (never acked): absence —
		// their base state — or any unacked op's effect is allowed, but
		// a value from nowhere is still corruption.
		for key, extra := range m.unresolved {
			touched[key] = true
			if _, wasAcked := m.acked[key]; wasAcked {
				continue // audited above
			}
			got, present := dump[key]
			ok := !present
			for _, u := range extra {
				ok = ok || (present == u.present && (!present || got == u.val))
			}
			if !ok {
				add("key %s: got (%q, %v), never acked and not among its %d unacked ops",
					key, got, present, len(extra))
			}
		}
	}
	for key := range dump {
		if !touched[key] && !strings.HasPrefix(key, "cx-") {
			// "cx-" keys belong to the expiry audit (chaosAuditTTL), which
			// reports their survival as a resurrection, not a phantom.
			add("key %s: phantom (never written by any worker)", key)
		}
	}
	return violations
}
