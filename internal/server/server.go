// Package server implements wsd, a network server fronting the sharded
// parallel working-set map. Its load-bearing idea is that network
// pipelining is the paper's batching, and that there is exactly one
// write path from socket to engine: each connection goroutine drains
// every pipelined request already on the wire into one []pws.Op and
// submits it as one job to the server's group-commit scheduler
// (internal/coalesce). The connection that finds no cut running leads:
// it cuts whatever all connections have queued into one combined batch
// Apply on its own goroutine, one cut at a time — the paper's
// one batching interface in front of the structure (the parallel
// buffer, App. A.1). Duplicate combining and working-set adaptivity
// therefore survive the network hop both within a connection's pipeline
// window and across connections: a fleet of unpipelined (depth-1)
// clients rides multi-op batches too.
//
// Config.CoalesceWindow only bounds how long a cut may wait for more
// traffic; it selects no code. Zero (the default) adds no latency — a
// leader cuts at once, so batches form only from what queued while the
// previous cut was being applied. See DESIGN.md
// "Cross-connection batch coalescing".
//
// The server speaks the internal/wire protocol (GET/SET/DEL/MGET/MSET/
// SCAN/LEN/STATS/PING/QUIT), enforces connection and pipeline limits,
// keeps per-op and aggregate batch statistics, and closes gracefully.
// SCAN is a cursor-paged range read (SCAN lo hi [count [cursor]]) served
// by the map's batched range path: each page is one bounded range op
// broadcast through the engines' normal cut batches, so scans no longer
// stop the world — no Quiesce, no lock excluding batch Applies, and
// write tail latency stays flat under concurrent scan load (see E20 in
// docs/history/EXPERIMENTS_E18-E23.md). Close still quiesces, but only to shut down.
//
// The server also closes gracefully:
// Close stops accepting, unblocks idle connections, lets in-flight
// batches finish writing their replies — draining the coalescer's open
// window — and only then closes the map.
package server

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	pws "repro"
	"repro/internal/coalesce"
	"repro/internal/frontcache"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// ErrClosed is returned by Serve and Pipe after Close.
var ErrClosed = errors.New("server: closed")

// ErrConnLimit is returned by Pipe when MaxConns is reached; over TCP
// the rejected connection gets an error reply instead.
var ErrConnLimit = errors.New("server: connection limit reached")

// Config configures a Server. The zero value serves a GOMAXPROCS-sharded
// map with default limits.
type Config struct {
	// Shards is the shard count of the underlying map (0 = GOMAXPROCS).
	Shards int
	// P is the per-shard processor parameter (0 = auto).
	P int
	// MaxConns caps concurrent connections (default 1024).
	MaxConns int
	// MaxPipeline caps how many pipelined commands one connection drains
	// into a single batch (default 256).
	MaxPipeline int
	// MaxScan caps the pairs one SCAN page may return (default 1000);
	// clients page past it with the reply's resume cursor.
	MaxScan int
	// Limits are the wire-protocol frame limits.
	Limits wire.Limits
	// CoalesceWindow bounds the latency the group-commit scheduler may
	// add to grow a combined batch: a cut fires when three quarters of
	// the connections the previous cut answered are back (with their
	// next job, or with a pipeline that needed none), when CoalesceBatch
	// operations are pending, or when the oldest has waited
	// CoalesceWindow, whichever comes first. Zero means no added
	// latency — the leading connection cuts at once, and combined
	// batches form only from what queued during the previous cut's
	// application. A window is what turns a fleet of unpipelined
	// (depth-1) clients back into the paper's parallel batches when the
	// server is otherwise idle between arrivals; see DESIGN.md
	// "Cross-connection batch coalescing". It is a wait bound, not a
	// mode: every operation takes the same path at any value.
	CoalesceWindow time.Duration
	// CoalesceBatch is the scheduler's size trigger in operations
	// (default 1024).
	CoalesceBatch int
	// WorkCounter attaches a structural-work counter (pointer-machine
	// node visits) to the map, surfaced in STATS and /statsz. Off by
	// default — unlike the depth/stage telemetry it adds atomic traffic
	// proportional to structural work, not to batches.
	WorkCounter bool
	// WAL, when set, makes the server durable: every committed batch is
	// appended (and, per the log's fsync policy, synced) before its
	// replies are written, and the background snapshotter checkpoints
	// the map through the log. The server takes ownership: Close closes
	// the log. The scheduler's one-cut-at-a-time leader is what gives
	// the log a total order matching the map's linearization; with a WAL a zero
	// CoalesceWindow defaults to DefaultDurableWindow, so each fsync is
	// amortized over a window's worth of traffic (see durable.go).
	WAL *wal.Log
	// SnapshotBytes triggers a background checkpoint once the WAL has
	// grown this much past the last one (default 64 MiB; negative
	// disables the background snapshotter — checkpoints then happen
	// only via Checkpoint). Ignored without WAL.
	SnapshotBytes int64
	// IdleTimeout, when positive, closes connections that sit idle
	// (no command read) longer than this, so dead clients stop pinning
	// conn goroutines and pooled arenas forever. Zero disables it.
	IdleTimeout time.Duration
	// FrontCache sizes the per-shard lock-free hot-key read front
	// (internal/frontcache) in entries: GETs consult it before the
	// batch pipeline and hot keys are answered in nanoseconds, with
	// every write dropping its key from the front as it resolves inside
	// the engine, before any result of its batch is released, so a
	// cached read never shadows a newer value. 0 means the default
	// (DefaultFrontCache entries per shard); negative disables the
	// front — the same negative-really-zero convention the load
	// generator's fraction knobs use.
	FrontCache int
	// MaxBytes, when positive, bounds the map's approximate resident
	// bytes (keys + values + per-item structural overhead): the budget
	// is split evenly across shards and enforced at batch boundaries by
	// evicting each shard's least-recent items — the cold end of the
	// working-set hierarchy. 0 means unbounded (byte accounting still
	// runs either way; see STATS "SECTION memory").
	MaxBytes int64
	// Clock supplies the TTL clock as absolute unix-nanos. Tests inject
	// a fake so EXPIRE deadlines and the map's expiry sweeps share one
	// controllable time source. Nil means time.Now().UnixNano.
	Clock func() int64
}

// DefaultFrontCache is the per-shard entry count of the hot-key read
// front when Config.FrontCache is zero.
const DefaultFrontCache = 4096

func (c Config) withDefaults() Config {
	if c.MaxConns < 1 {
		c.MaxConns = 1024
	}
	if c.MaxPipeline < 1 {
		c.MaxPipeline = 256
	}
	if c.MaxScan < 1 {
		c.MaxScan = 1000
	}
	if c.FrontCache == 0 {
		c.FrontCache = DefaultFrontCache
	} else if c.FrontCache < 0 {
		c.FrontCache = 0
	}
	if c.WAL != nil {
		if c.SnapshotBytes == 0 {
			c.SnapshotBytes = 64 << 20
		}
		if c.CoalesceWindow <= 0 {
			c.CoalesceWindow = DefaultDurableWindow
		}
	}
	return c
}

// Stats is a snapshot of the server's counters. Batches/Ops are the
// combined batches applied to the map and the operations they carried,
// so Ops/Batches is the realized batching factor.
type Stats struct {
	// ActiveConns and TotalConns count current and lifetime connections;
	// RejectedConns counts connections turned away at the MaxConns limit.
	ActiveConns   int64
	TotalConns    int64
	RejectedConns int64
	// Batches is the number of combined batches applied; Ops the total
	// map operations in them; MaxBatch the largest single batch. They are
	// the coalescer's cut counts: every map batch is one of its cuts.
	Batches  int64
	Ops      int64
	MaxBatch int64
	// Per-op counters (MGET counts toward Gets, MSET toward Sets, and
	// EXPIRE/SETEX toward Expires — SETEX also counts one Set).
	Gets    int64
	Sets    int64
	Dels    int64
	Expires int64
	Scans   int64
	// Errors counts error replies written (bad arity, unknown commands).
	Errors int64
}

// AvgBatch returns the mean operations per submitted batch.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Ops) / float64(s.Batches)
}

// counters is the live, atomically updated form of Stats, less the
// batch counts the coalescer keeps.
type counters struct {
	activeConns   atomic.Int64
	totalConns    atomic.Int64
	rejectedConns atomic.Int64
	gets          atomic.Int64
	sets          atomic.Int64
	dels          atomic.Int64
	expires       atomic.Int64
	scans         atomic.Int64
	errors        atomic.Int64
}

// Server is a wsd instance: a listener front-end over one sharded
// working-set map. Create with New, serve with Serve/ServeConn/Pipe, stop
// with Close.
type Server struct {
	cfg   Config
	store *pws.Sharded[string, string]

	// co is the group-commit scheduler: the only submitter to the map on
	// behalf of connections (see conn.flushBatch).
	co *coalesce.Coalescer[string, string]

	// obsm is the map's telemetry bundle — per-shard working-set depth
	// histograms plus the batch-stage histograms — always on for servers
	// built with New (recording is alloc-free; see DESIGN.md
	// "Observability").
	obsm *pws.MapTelemetry
	// work is the structural-work counter, nil unless Config.WorkCounter.
	work *pws.WorkCounter
	// stats is the one table STATS, /statsz and /metrics render (admin.go).
	stats *obs.Registry

	// Durability plumbing, nil/empty unless Config.WAL is set: the log,
	// the applier's record scratch (touched only by the cut's leader,
	// one cut at a time), the snapshot scan's upper-bound key, and
	// the background snapshotter's lifecycle channels (see durable.go).
	wal      *wal.Log
	walRecs  []wal.Record
	walHi    string
	snapStop chan struct{}
	snapDone chan struct{}
	// cutHook, when a test sets it, runs on the cut's leader as a
	// durable cut's sync begins, while the shards apply the cut.
	cutHook func()

	mu        sync.Mutex
	conns     map[*conn]struct{}
	listeners map[net.Listener]struct{}
	closed    bool

	wg        sync.WaitGroup
	closeOnce sync.Once
	closedCh  chan struct{}

	st counters
}

// New creates a Server and its underlying sharded map.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	var work *pws.WorkCounter
	if cfg.WorkCounter {
		work = &pws.WorkCounter{}
	}
	s := &Server{
		cfg: cfg,
		store: pws.NewSharded[string, string](pws.ShardedOptions{
			P:          cfg.P,
			Counter:    work,
			Shards:     cfg.Shards,
			Telemetry:  true,
			FrontCache: cfg.FrontCache,
			MaxBytes:   cfg.MaxBytes,
			Clock:      cfg.Clock,
		}),
		work:      work,
		conns:     make(map[*conn]struct{}),
		listeners: make(map[net.Listener]struct{}),
		closedCh:  make(chan struct{}),
	}
	s.obsm = s.store.Obs()
	// The applier is the single point where client operations touch the
	// map. SCAN needs no exclusion here: range reads are batch ops
	// themselves, so combined commits and scan pages interleave freely on
	// the map.
	//
	// In durable mode the applier is also the WAL commit hook: the
	// combined batch's frame is written, then applied while it is fsynced
	// (per policy), all before the applier returns and the coalescer
	// releases the batch's jobs — so replies wait on durability (see
	// durable.go).
	apply := func(batches [][]pws.Op[string, string], dsts [][]pws.Result[string]) {
		s.store.ApplyScattered(batches, dsts, nil)
	}
	if cfg.WAL != nil {
		s.wal = cfg.WAL
		s.walHi = walHiSentinel(cfg.Limits)
		apply = s.applyDurable
	}
	s.co = coalesce.New(coalesce.Config{
		MaxBatch: cfg.CoalesceBatch,
		MaxDelay: cfg.CoalesceWindow,
		Stages:   s.obsm.Stages(),
	}, apply)
	if s.wal != nil && cfg.SnapshotBytes > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop()
	}
	s.stats = s.registerStats()
	return s
}

// CoalesceStats returns the group-commit scheduler's counters.
func (s *Server) CoalesceStats() coalesce.Stats { return s.co.Stats() }

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	c, cs := &s.st, s.co.Stats()
	return Stats{
		ActiveConns:   c.activeConns.Load(),
		TotalConns:    c.totalConns.Load(),
		RejectedConns: c.rejectedConns.Load(),
		Batches:       cs.Batches,
		Ops:           cs.Ops,
		MaxBatch:      cs.MaxBatch,
		Gets:          c.gets.Load(),
		Sets:          c.sets.Load(),
		Dels:          c.dels.Load(),
		Expires:       c.expires.Load(),
		Scans:         c.scans.Load(),
		Errors:        c.errors.Load(),
	}
}

// Front reports whether the hot-key read front is enabled, and returns
// its counters (merged across shards) when it is. Front hits are GETs
// answered without a batch op, so total GET work is Stats().Ops plus
// Front().Hits.
func (s *Server) Front() (frontcache.Stats, bool) {
	if !s.store.FrontEnabled() {
		return frontcache.Stats{}, false
	}
	return s.store.FrontStats(), true
}

// Mem returns the store's bounded-memory health snapshot: resident
// bytes against the configured budget, lifetime evictions and TTL
// expirations, and the currently armed TTL count. Soak harnesses
// assert the budget ceiling through it.
func (s *Server) Mem() pws.MemStats { return s.store.Mem() }

// Obs returns the map's telemetry bundle (depth and stage histograms).
func (s *Server) Obs() *pws.MapTelemetry { return s.obsm }

// stages returns the batch-stage histogram set; nil-safe to record on.
func (s *Server) stages() *obs.StageSet { return s.obsm.Stages() }

// Shards returns the shard count of the underlying map.
func (s *Server) Shards() int { return s.store.Shards() }

func (s *Server) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// register adds a connection under the limits; ok reports acceptance.
func (s *Server) register(nc net.Conn) (*conn, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if len(s.conns) >= s.cfg.MaxConns {
		s.st.rejectedConns.Add(1)
		return nil, ErrConnLimit
	}
	c := &conn{
		srv:   s,
		nc:    nc,
		r:     wire.NewReaderLimits(nc, s.cfg.Limits),
		w:     wire.NewWriter(nc),
		front: s.store.FrontEnabled(),
	}
	s.conns[c] = struct{}{}
	s.wg.Add(1)
	s.st.totalConns.Add(1)
	s.st.activeConns.Add(1)
	return c, nil
}

func (s *Server) deregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.nc.Close()
	s.st.activeConns.Add(-1)
	s.wg.Done()
}

// ServeConn serves one established connection until it closes, errors,
// quits, or the server shuts down. It blocks; rejected connections (over
// the limit, or after Close) get an error reply and are closed.
func (s *Server) ServeConn(nc net.Conn) error {
	c, err := s.register(nc)
	if err != nil {
		w := wire.NewWriter(nc)
		w.WriteError("ERR " + err.Error())
		w.Flush()
		nc.Close()
		return err
	}
	defer s.deregister(c)
	c.serve()
	return nil
}

// Pipe connects an in-process client over a synchronous net.Pipe: the
// server end is served on its own goroutine (participating in limits,
// stats and graceful Close exactly like a TCP connection) and the client
// end is returned. This is the deterministic, race-clean transport the
// tests and examples use.
func (s *Server) Pipe() (net.Conn, error) {
	cl, sv := net.Pipe()
	c, err := s.register(sv)
	if err != nil {
		cl.Close()
		sv.Close()
		return nil, err
	}
	go func() {
		defer s.deregister(c)
		c.serve()
	}()
	return cl, nil
}

// Serve accepts connections on l until Close (returning nil) or a
// listener error (returned).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
		l.Close()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			if s.isClosed() {
				return nil
			}
			return err
		}
		go s.ServeConn(nc)
	}
}

// Close shuts the server down gracefully: it stops accepting, unblocks
// connections idle in a read (via a read deadline), grants each
// connection one short grace window to drain commands already in the
// transport's buffers (a read deadline abandons kernel-buffered bytes
// otherwise), waits for every in-flight batch to finish and write its
// replies, and then closes the map. Safe to call repeatedly and
// concurrently; every call blocks until shutdown completes.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		ls := make([]net.Listener, 0, len(s.listeners))
		for l := range s.listeners {
			ls = append(ls, l)
		}
		cs := make([]*conn, 0, len(s.conns))
		for c := range s.conns {
			cs = append(cs, c)
		}
		s.mu.Unlock()
		for _, l := range ls {
			l.Close()
		}
		// Deadline only reads, and only after the grace window: a
		// connection mid-batch still writes and flushes its replies, and
		// commands already in the transport's buffers are still drained
		// and answered before the deadline ends the connection (see
		// conn.serve). Deadline writers — this shutdown grace and the
		// reader's own idle-timeout arming — are serialized per
		// connection by conn.dlMu, and armShutdown wins permanently.
		for _, c := range cs {
			c.armShutdown()
		}
		s.wg.Wait()
		// All connections are gone, so no job can still be submitted; the
		// coalescer drain commits anything caught mid-window (connections
		// waiting on such jobs are part of wg, so this is belt and braces)
		// before the map closes under it.
		s.co.Close()
		// The coalescer is drained, so nothing appends to the WAL
		// anymore; stop the snapshotter (it may be mid-RangePage, which
		// needs the map alive) and seal the log before the map closes.
		// A clean Close fsyncs everything regardless of policy.
		if s.wal != nil {
			if s.snapStop != nil {
				close(s.snapStop)
				<-s.snapDone
			}
			s.wal.Close()
		}
		s.store.Close()
		close(s.closedCh)
	})
	<-s.closedCh
	return nil
}
