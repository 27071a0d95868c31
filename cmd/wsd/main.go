// Wsd serves the sharded parallel working-set map over TCP, speaking the
// RESP-like internal/wire protocol (GET/SET/DEL/MGET/MSET/SCAN/LEN/
// STATS/PING/QUIT). Each connection's pipelined requests are drained
// into one job for the server's group-commit scheduler, which applies
// whatever all connections have queued as one combined batch — so the
// paper's duplicate combining and working-set adaptivity survive the
// network hop, within a pipeline and across connections. SCAN is cursor-paged
// (SCAN lo hi [count [cursor]]) and rides the same batched engine path —
// scans never stop the world, so write tail latency stays flat under
// concurrent scan load.
//
// Usage:
//
//	wsd                          # serve on :6380, GOMAXPROCS shards
//	wsd -addr :7000              # another listen address
//	wsd -shards 8 -p 4           # fixed shard count and per-shard p
//	wsd -coalesce-window 200us   # let a cut wait up to 200us for more
//	                             # traffic, so depth-1 clients ride bigger
//	                             # combined batches (0 = no added latency;
//	                             # README: tuning -coalesce-window)
//	wsd -front-cache 0           # disable the per-shard hot-key read cache
//	                             # (on by default; GETs of recently read
//	                             # keys answer before the batch pipeline)
//	wsd -max-bytes 268435456     # bounded-memory cache mode: evict the
//	                             # least-recent keys at batch boundaries
//	                             # to hold ~256 MiB resident (0 = unbounded;
//	                             # EXPIRE/SETEX per-key TTLs work either way)
//	wsd -data-dir /var/lib/wsd   # durable: group-commit WAL + snapshots;
//	                             # restart recovers every acked write
//	                             # (-fsync always; -fsync never syncs only
//	                             # at segment seals, snapshots and exit)
//	wsd -admin :6381             # admin HTTP endpoint: Prometheus /metrics,
//	                             # JSON /statsz (depth and batch-stage
//	                             # histograms), /debug/pprof. A bare port
//	                             # binds loopback; non-loopback requires
//	                             # -admin-expose
//
// Drive it with cmd/wsload, or any client speaking the wire protocol.
// SIGINT/SIGTERM trigger a graceful shutdown: in-flight batches finish
// and write their replies before the map closes.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
)

func main() {
	var (
		addr      = flag.String("addr", ":6380", "TCP listen address")
		shards    = flag.Int("shards", 0, "shard count (0 = GOMAXPROCS)")
		p         = flag.Int("p", 0, "per-shard processor parameter p (0 = auto)")
		maxConns  = flag.Int("maxconns", 1024, "max concurrent connections")
		maxPipe   = flag.Int("maxpipeline", 256, "max pipelined commands per batch")
		coWin     = flag.Duration("coalesce-window", 0, "longest a combined batch may wait for more traffic before it is cut (0 = no added latency; with -data-dir 0 means 200us, amortizing each fsync)")
		coBatch   = flag.Int("coalesce-batch", 1024, "cut a combined batch early once this many ops are queued")
		frontSz   = flag.Int("front-cache", server.DefaultFrontCache, "per-shard hot-key read cache entries (0 = off)")
		maxBytes  = flag.Int64("max-bytes", 0, "global resident-byte budget; least-recent keys evict at batch boundaries (0 = unbounded)")
		maxScan   = flag.Int("max-scan", 1000, "max pairs per SCAN page (clients page past it with the reply cursor)")
		admin     = flag.String("admin", "", "admin HTTP listen address (/metrics, /statsz, /debug/pprof); empty = off; empty host = loopback")
		adminOpen = flag.Bool("admin-expose", false, "allow the unauthenticated admin endpoint on a non-loopback address")
		workCnt   = flag.Bool("work-counter", false, "count structural work (pointer-machine units) in STATS and /statsz")
		dataDir   = flag.String("data-dir", "", "durability directory (WAL segments + snapshots); empty = in-memory only")
		fsync     = flag.String("fsync", "always", "WAL fsync policy: always (per group-commit cut) or never (only at segment seals, snapshots and exit)")
		segBytes  = flag.Int64("segment-bytes", 64<<20, "WAL segment rotation size")
		snapBytes = flag.Int64("snapshot-bytes", 64<<20, "checkpoint once the WAL grows this much past the last snapshot (negative = never)")
		idleTO    = flag.Duration("idle-timeout", 0, "close connections idle longer than this (0 = never)")
	)
	flag.Parse()

	cfg := server.Config{
		Shards:         *shards,
		P:              *p,
		MaxConns:       *maxConns,
		MaxPipeline:    *maxPipe,
		MaxScan:        *maxScan,
		CoalesceWindow: *coWin,
		CoalesceBatch:  *coBatch,
		FrontCache:     *frontSz, // 0 remapped below: flag 0 = off, Config 0 = default
		MaxBytes:       *maxBytes,
		WorkCounter:    *workCnt,
		IdleTimeout:    *idleTO,
	}
	if *frontSz <= 0 {
		cfg.FrontCache = -1
	}

	// Parsed with or without -data-dir, so a bad policy fails at start-up.
	policy, err := wal.ParsePolicy(*fsync)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wsd: %v\n", err)
		os.Exit(2)
	}
	var rec *wal.Recovery
	if *dataDir != "" {
		cfg.WAL, rec, err = wal.Open(wal.Options{
			Dir:          *dataDir,
			Policy:       policy,
			SegmentBytes: *segBytes,
		})
		if err != nil {
			log.Fatalf("wsd: wal: %v", err)
		}
		cfg.SnapshotBytes = *snapBytes
		if *snapBytes < 0 {
			cfg.SnapshotBytes = -1
		}
	}

	srv := server.New(cfg)
	if rec != nil {
		t0 := time.Now()
		n, err := srv.Recover(rec)
		if err != nil {
			log.Fatalf("wsd: recovery: %v", err)
		}
		ws, _ := srv.WALStats()
		log.Printf("wsd: recovered %d records (snapshot seq %d, %d log batches) in %s from %s",
			n, rec.SnapshotSeq(), ws.ReplayBatches, time.Since(t0).Round(time.Millisecond), *dataDir)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("wsd: %v", err)
	}

	if *admin != "" {
		aaddr, err := adminAddr(*admin, *adminOpen)
		if err != nil {
			log.Fatalf("wsd: admin: %v", err)
		}
		al, err := net.Listen("tcp", aaddr)
		if err != nil {
			log.Fatalf("wsd: admin: %v", err)
		}
		if *adminOpen {
			log.Printf("wsd: WARNING: unauthenticated admin endpoint exposed on non-loopback %s", al.Addr())
		}
		log.Printf("wsd: admin endpoint on http://%s (/metrics /statsz /debug/pprof)", al.Addr())
		go func() {
			if err := http.Serve(al, srv.AdminHandler()); err != nil {
				log.Printf("wsd: admin: %v", err)
			}
		}()
	}
	win := *coWin
	if win <= 0 && cfg.WAL != nil {
		win = server.DefaultDurableWindow
	}
	mode := fmt.Sprintf("coalesce window=%s batch=%d", win, *coBatch)
	if *frontSz > 0 {
		mode += fmt.Sprintf(", front-cache=%d/shard", *frontSz)
	}
	if *maxBytes > 0 {
		mode += fmt.Sprintf(", max-bytes=%d", *maxBytes)
	}
	if cfg.WAL != nil {
		mode += fmt.Sprintf(", durable fsync=%s", cfg.WAL.Policy())
	}
	log.Printf("wsd: serving on %s (shards=%d, %s)", l.Addr(), srv.Shards(), mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		log.Printf("wsd: %v: draining in-flight batches", s)
		srv.Close()
	}()

	if err := srv.Serve(l); err != nil {
		log.Fatalf("wsd: %v", err)
	}
	srv.Close()
	st := srv.Stats()
	log.Printf("wsd: stopped after %d conns, %d batches, %d ops (avg batch %.1f)",
		st.TotalConns, st.Batches, st.Ops, st.AvgBatch())
}

// adminAddr applies the admin endpoint's bind policy: the mux is
// unauthenticated (it exposes pprof, including heap contents), so an
// empty or loopback host binds as given (an empty host becomes
// 127.0.0.1), while a non-loopback host — including the wildcard — is
// refused unless -admin-expose explicitly opts in.
func adminAddr(addr string, expose bool) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", fmt.Errorf("bad address %q: %v", addr, err)
	}
	if host == "" {
		return net.JoinHostPort("127.0.0.1", port), nil
	}
	if expose {
		return addr, nil
	}
	if host == "localhost" {
		return addr, nil
	}
	if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
		return addr, nil
	}
	return "", fmt.Errorf("refusing non-loopback admin address %q without -admin-expose (the endpoint is unauthenticated)", addr)
}
