package server

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Shards == 0 {
		cfg.Shards = 4
	}
	if cfg.P == 0 {
		cfg.P = 2
	}
	s := New(cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

func pipeClient(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	nc, err := s.Pipe()
	if err != nil {
		t.Fatalf("Pipe: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return wire.NewClient(nc)
}

// forWindows runs a test under both cut policies of the one write path:
// no added wait (the default), and a window wide enough to merge
// concurrent test traffic yet small enough to keep tests fast. The two
// differ only in when the scheduler cuts, never in which code serves a
// command.
func forWindows(t *testing.T, run func(t *testing.T, cfg Config)) {
	for _, w := range []struct {
		name string
		cfg  Config
	}{
		{"window0", Config{}},
		{"window200us", coalescedConfig()},
	} {
		t.Run(w.name, func(t *testing.T) { run(t, w.cfg) })
	}
}

// TestServerCommands exercises every command of the protocol over one
// in-process connection, including barrier commands and errors
// interleaved with map ops.
func TestServerCommands(t *testing.T) {
	forWindows(t, testServerCommands)
}

func testServerCommands(t *testing.T, cfg Config) {
	s := newTestServer(t, cfg)
	c := pipeClient(t, s)

	if r, err := c.Do("PING"); err != nil || r.Str != "PONG" {
		t.Fatalf("PING: %+v, %v", r, err)
	}
	// Miss, set, hit, overwrite, delete.
	if _, ok, err := c.Get("k"); err != nil || ok {
		t.Fatalf("GET missing: ok=%v err=%v", ok, err)
	}
	if err := c.Set("k", "v1"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "v1" {
		t.Fatalf("GET k: %q %v %v", v, ok, err)
	}
	if err := c.Set("k", "v2"); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := c.Get("k"); v != "v2" {
		t.Fatalf("GET after overwrite: %q", v)
	}
	if n, err := c.Del("k", "nope"); err != nil || n != 1 {
		t.Fatalf("DEL: %d, %v", n, err)
	}
	// MSET/MGET.
	if r, err := c.Do("MSET", "a", "1", "b", "2", "c", "3"); err != nil || r.Str != "OK" {
		t.Fatalf("MSET: %+v, %v", r, err)
	}
	r, err := c.Do("MGET", "a", "miss", "c")
	if err != nil || r.Kind != wire.ArrayReply || len(r.Elems) != 3 {
		t.Fatalf("MGET: %+v, %v", r, err)
	}
	if r.Elems[0].Str != "1" || r.Elems[1].Kind != wire.NilReply || r.Elems[2].Str != "3" {
		t.Fatalf("MGET elems: %+v", r.Elems)
	}
	// LEN.
	if n, err := c.Len(); err != nil || n != 3 {
		t.Fatalf("LEN: %d, %v", n, err)
	}
	// SCAN: ordered, half-open, count-capped, cursor-paged. The reply is
	// [cursor, k1, v1, k2, v2, ...]; an exhausted scan returns an empty
	// cursor.
	r, err = c.Do("SCAN", "a", "c")
	if err != nil || r.Kind != wire.ArrayReply {
		t.Fatalf("SCAN: %+v, %v", r, err)
	}
	if len(r.Elems) != 5 || r.Elems[0].Str != "" ||
		r.Elems[1].Str != "a" || r.Elems[3].Str != "b" {
		t.Fatalf("SCAN [a,c): %+v", r.Elems)
	}
	// count=1 truncates and hands back a resume cursor; following it pages
	// through the rest.
	r, _ = c.Do("SCAN", "a", "z", "1")
	if len(r.Elems) != 3 || r.Elems[0].Str == "" || r.Elems[1].Str != "a" {
		t.Fatalf("SCAN count=1: %+v", r.Elems)
	}
	var paged []string
	cursor := r.Elems[0].Str
	paged = append(paged, r.Elems[1].Str)
	for cursor != "" {
		r, err = c.Do("SCAN", "a", "z", "1", cursor)
		if err != nil || r.Kind != wire.ArrayReply {
			t.Fatalf("SCAN resume: %+v, %v", r, err)
		}
		for i := 1; i < len(r.Elems); i += 2 {
			paged = append(paged, r.Elems[i].Str)
		}
		cursor = r.Elems[0].Str
	}
	if len(paged) != 3 || paged[0] != "a" || paged[1] != "b" || paged[2] != "c" {
		t.Fatalf("cursor paging visited %v", paged)
	}
	// STATS.
	r, err = c.Do("STATS")
	if err != nil || r.Kind != wire.BulkReply || !strings.Contains(r.Str, "server_batches ") ||
		!strings.Contains(r.Str, "coalesce_window ") {
		t.Fatalf("STATS: %+v, %v", r, err)
	}
	// Errors: unknown command, wrong arity, bad scan count.
	if r, _ := c.Do("NOSUCH"); r.Kind != wire.ErrorReply {
		t.Fatalf("unknown command: %+v", r)
	}
	if r, _ := c.Do("SET", "only-key"); r.Kind != wire.ErrorReply {
		t.Fatalf("SET arity: %+v", r)
	}
	if r, _ := c.Do("MSET", "a", "1", "b"); r.Kind != wire.ErrorReply {
		t.Fatalf("MSET odd arity: %+v", r)
	}
	if r, _ := c.Do("SCAN", "a", "z", "x"); r.Kind != wire.ErrorReply {
		t.Fatalf("SCAN bad count: %+v", r)
	}
	// Malformed cursors are protocol errors, and the connection survives
	// them (no pooled state is leaked or wedged).
	for _, bad := range []string{"garbage", "k====", "\x00", "K" + "AbC"} {
		if r, _ := c.Do("SCAN", "a", "z", "1", bad); r.Kind != wire.ErrorReply {
			t.Fatalf("SCAN bad cursor %q: %+v", bad, r)
		}
	}
	if r, err := c.Do("SCAN", "a", "z"); err != nil || r.Kind != wire.ArrayReply {
		t.Fatalf("SCAN after bad cursors: %+v, %v", r, err)
	}
	// QUIT ends the connection after replying.
	if r, err := c.Do("QUIT"); err != nil || r.Str != "OK" {
		t.Fatalf("QUIT: %+v, %v", r, err)
	}
	if _, err := c.Do("PING"); err == nil {
		t.Fatal("connection alive after QUIT")
	}
}

// TestServerInterleavedBatch checks sequential semantics inside one
// pipelined batch, with barrier commands cutting the pipeline into
// several scheduler jobs: replies come back in command order and per-key
// effects in program order (a GET after a SET of the same key in the
// same pipeline observes the SET).
func TestServerInterleavedBatch(t *testing.T) {
	forWindows(t, func(t *testing.T, cfg Config) {
		s := newTestServer(t, cfg)
		c := pipeClient(t, s)
		c.Send("SET", "x", "1")
		c.Send("GET", "x")
		c.Send("PING")
		c.Send("DEL", "x")
		c.Send("GET", "x")
		c.Send("LEN")
		c.Send("SET", "x", "2")
		c.Send("GET", "x")
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		want := []wire.Reply{
			{Kind: wire.SimpleReply, Str: "OK"},
			{Kind: wire.BulkReply, Str: "1"},
			{Kind: wire.SimpleReply, Str: "PONG"},
			{Kind: wire.IntReply, Int: 1},
			{Kind: wire.NilReply},
			{Kind: wire.IntReply, Int: 0},
			{Kind: wire.SimpleReply, Str: "OK"},
			{Kind: wire.BulkReply, Str: "2"},
		}
		for i, exp := range want {
			got, err := c.Recv()
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			if got.Kind != exp.Kind || got.Str != exp.Str || got.Int != exp.Int {
				t.Fatalf("reply %d: got %+v, want %+v", i, got, exp)
			}
		}
	})
}

// clientOp mirrors one command and its model-predicted reply.
type clientOp struct {
	args []string
	// expected reply, computed against the local model before sending.
	kind wire.ReplyKind
	str  string
	n    int64
}

// TestServerConcurrentPipelined is the tentpole integration test: 8
// concurrent connections with pipeline depth 16 issue a mixed
// GET/SET/DEL stream over disjoint per-connection key spaces, with every
// reply checked exactly against a local model. Run under -race in CI.
func TestServerConcurrentPipelined(t *testing.T) {
	const (
		conns   = 8
		depth   = 16
		batches = 30
		keys    = 40
	)
	s := newTestServer(t, Config{})
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for id := 0; id < conns; id++ {
		nc, err := s.Pipe()
		if err != nil {
			t.Fatalf("Pipe: %v", err)
		}
		wg.Add(1)
		go func(id int, c *wire.Client) {
			defer wg.Done()
			defer nc.Close()
			rng := rand.New(rand.NewSource(int64(1000 + id)))
			model := map[string]string{}
			for b := 0; b < batches; b++ {
				ops := make([]clientOp, depth)
				for i := range ops {
					k := fmt.Sprintf("c%d-k%03d", id, rng.Intn(keys))
					switch rng.Intn(3) {
					case 0: // GET
						if v, ok := model[k]; ok {
							ops[i] = clientOp{args: []string{"GET", k}, kind: wire.BulkReply, str: v}
						} else {
							ops[i] = clientOp{args: []string{"GET", k}, kind: wire.NilReply}
						}
					case 1: // SET
						v := fmt.Sprintf("v%d-%d", b, i)
						model[k] = v
						ops[i] = clientOp{args: []string{"SET", k, v}, kind: wire.SimpleReply, str: "OK"}
					default: // DEL
						var n int64
						if _, ok := model[k]; ok {
							n = 1
							delete(model, k)
						}
						ops[i] = clientOp{args: []string{"DEL", k}, kind: wire.IntReply, n: n}
					}
				}
				for _, op := range ops {
					if err := c.Send(op.args...); err != nil {
						errc <- fmt.Errorf("conn %d: send: %w", id, err)
						return
					}
				}
				if err := c.Flush(); err != nil {
					errc <- fmt.Errorf("conn %d: flush: %w", id, err)
					return
				}
				for i, op := range ops {
					got, err := c.Recv()
					if err != nil {
						errc <- fmt.Errorf("conn %d batch %d reply %d: %w", id, b, i, err)
						return
					}
					if got.Kind != op.kind || got.Str != op.str || got.Int != op.n {
						errc <- fmt.Errorf("conn %d batch %d %v: got %+v, want kind=%v str=%q n=%d",
							id, b, op.args, got, op.kind, op.str, op.n)
						return
					}
				}
			}
		}(id, wire.NewClient(nc))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := s.Stats()
	if st.MaxBatch < 2 {
		t.Errorf("pipelined load never batched: MaxBatch = %d", st.MaxBatch)
	}
	// GETs answered by the hot-key front consume no batch op; batch ops
	// plus front hits must account for every command exactly.
	fs, _ := s.Front()
	if st.Ops+fs.Hits != conns*depth*batches {
		t.Errorf("ops+front hits = %d+%d, want %d", st.Ops, fs.Hits, conns*depth*batches)
	}
}

// TestServerCloseDrains checks graceful shutdown: Close racing active
// pipelines (jobs possibly caught mid-window) loses no replies — every
// batch whose flush succeeded gets all its replies — and neither panics
// with use-after-close nor deadlocks on the scheduler.
func TestServerCloseDrains(t *testing.T) {
	forWindows(t, testServerCloseDrains)
}

func testServerCloseDrains(t *testing.T, cfg Config) {
	const conns = 6
	s := newTestServer(t, cfg)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, conns)
	for id := 0; id < conns; id++ {
		nc, err := s.Pipe()
		if err != nil {
			t.Fatalf("Pipe: %v", err)
		}
		wg.Add(1)
		go func(id int, c *wire.Client) {
			defer wg.Done()
			defer nc.Close()
			<-start
			for b := 0; ; b++ {
				const depth = 8
				for i := 0; i < depth; i++ {
					if err := c.Send("SET", fmt.Sprintf("c%d-%d-%d", id, b, i), "v"); err != nil {
						return // server gone before the batch was accepted
					}
				}
				if err := c.Flush(); err != nil {
					return // ditto: no replies owed
				}
				// Flush succeeded: the whole batch reached the server, so
				// every reply must arrive even if Close raced with it.
				for i := 0; i < depth; i++ {
					rep, err := c.Recv()
					if err != nil {
						errc <- fmt.Errorf("conn %d batch %d: lost reply %d after accepted flush: %w", id, b, i, err)
						return
					}
					if rep.Kind != wire.SimpleReply {
						errc <- fmt.Errorf("conn %d batch %d reply %d: %+v", id, b, i, rep)
						return
					}
				}
			}
		}(id, wire.NewClient(nc))
	}
	close(start)
	// Let the load get going, then shut down mid-flight.
	for s.Stats().Batches < 5 {
		time.Sleep(time.Millisecond)
	}
	s.Close()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	// Double Close stays idempotent, and the server refuses new conns.
	s.Close()
	if _, err := s.Pipe(); err != ErrClosed {
		t.Fatalf("Pipe after Close: %v, want ErrClosed", err)
	}
}

// TestServerPipelineBatching asserts the pipelining→batching thesis via
// server stats: the same operation stream submitted with pipeline depth
// 16 produces measurably fewer, larger batches than depth 1.
func TestServerPipelineBatching(t *testing.T) {
	const ops = 512
	run := func(depth int) Stats {
		s := newTestServer(t, Config{})
		c := pipeClient(t, s)
		sent := 0
		for sent < ops {
			n := depth
			if sent+n > ops {
				n = ops - sent
			}
			for i := 0; i < n; i++ {
				var err error
				if i%2 == 0 {
					err = c.Send("SET", fmt.Sprintf("k%04d", sent+i), "v")
				} else {
					err = c.Send("GET", fmt.Sprintf("k%04d", sent+i-1))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := c.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			sent += n
		}
		st := s.Stats()
		s.Close()
		return st
	}
	pipelined := run(16)
	unpipelined := run(1)
	if pipelined.Ops != ops || unpipelined.Ops != ops {
		t.Fatalf("ops: pipelined %d, unpipelined %d, want %d", pipelined.Ops, unpipelined.Ops, ops)
	}
	if unpipelined.Batches != ops {
		t.Errorf("unpipelined run batched: %d batches for %d ops", unpipelined.Batches, ops)
	}
	if pipelined.Batches*4 > unpipelined.Batches {
		t.Errorf("pipelining did not reduce batches: %d vs %d", pipelined.Batches, unpipelined.Batches)
	}
	if pipelined.AvgBatch() < 4 {
		t.Errorf("pipelined avg batch = %.1f, want >= 4", pipelined.AvgBatch())
	}
	t.Logf("pipelined: %d batches (avg %.1f, max %d); unpipelined: %d batches",
		pipelined.Batches, pipelined.AvgBatch(), pipelined.MaxBatch, unpipelined.Batches)
}

// TestServerConnLimit checks MaxConns enforcement and slot recycling.
func TestServerConnLimit(t *testing.T) {
	s := newTestServer(t, Config{MaxConns: 2})
	a := pipeClient(t, s)
	nc, err := s.Pipe()
	if err != nil {
		t.Fatalf("second conn: %v", err)
	}
	if _, err := s.Pipe(); err != ErrConnLimit {
		t.Fatalf("third conn: %v, want ErrConnLimit", err)
	}
	// Releasing one slot admits a new connection.
	b := wire.NewClient(nc)
	if _, err := b.Do("QUIT"); err != nil {
		t.Fatal(err)
	}
	nc.Close()
	ok := false
	for i := 0; i < 1000; i++ { // deregistration is asynchronous
		if _, err := s.Pipe(); err == nil {
			ok = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !ok {
		t.Fatal("slot not recycled after QUIT")
	}
	if r, err := a.Do("PING"); err != nil || r.Str != "PONG" {
		t.Fatalf("first conn disturbed: %+v, %v", r, err)
	}
	if s.Stats().RejectedConns == 0 {
		t.Error("rejected connection not counted")
	}
}

// TestServerProtocolError checks that a malformed frame gets one error
// reply and a closed connection, without disturbing the server.
func TestServerProtocolError(t *testing.T) {
	s := newTestServer(t, Config{Limits: wire.Limits{MaxBulk: 16}})
	nc, err := s.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewClient(nc)
	// Declared bulk length over the server's limit: fatal protocol error.
	if _, err := nc.Write([]byte("*2\r\n$3\r\nGET\r\n$99999\r\n")); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Recv()
	if err != nil || rep.Kind != wire.ErrorReply {
		t.Fatalf("want error reply, got %+v, %v", rep, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection alive after protocol error")
	}
	// Server still serves new connections.
	c2 := pipeClient(t, s)
	if r, err := c2.Do("PING"); err != nil || r.Str != "PONG" {
		t.Fatalf("server disturbed: %+v, %v", r, err)
	}
}

// TestServerLenAfterAckedSets pins read-your-writes for LEN: after a
// connection's 64 SETs are acked, its next LEN counts all of them — every
// time, on any core count (the engine publishes its size before it
// completes the calls that changed it).
func TestServerLenAfterAckedSets(t *testing.T) {
	forWindows(t, func(t *testing.T, cfg Config) {
		cfg.Shards = 2
		s := newTestServer(t, cfg)
		c := pipeClient(t, s)
		const per, iters = 64, 200
		for it := 0; it < iters; it++ {
			for i := 0; i < per; i++ {
				c.Send("SET", fmt.Sprintf("k%03d-%03d", it, i), fmt.Sprintf("%d", i))
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < per; i++ {
				if rep, err := c.Recv(); err != nil || rep.Str != "OK" {
					t.Fatalf("iter %d reply %d: %+v, %v", it, i, rep, err)
				}
			}
			if n, err := c.Len(); err != nil || n != int64(per*(it+1)) {
				t.Fatalf("iter %d: LEN = %d, %v after %d acked SETs", it, n, err, per*(it+1))
			}
		}
		if v, ok, err := c.Get("k007-042"); err != nil || !ok || v != "42" {
			t.Fatalf("GET: %q %v %v", v, ok, err)
		}
	})
}

// TestServerScanConcurrentWritesAndClose is the scan-path teardown race:
// SCAN pages interleave with heavy pipelined writes while the server is
// closed mid-flight. Every command whose pipeline was accepted (Flush
// succeeded) must get a reply — scan pages included — and every page must
// be internally consistent (sorted, in-bounds, cursor well-formed): the
// keys and values on the wire are map-owned copies or delivered before
// the reader arena resets, so churned write traffic cannot corrupt them.
// Run under -race this covers the batched range path against the
// scheduler's concurrent combined commits and the Close drain.
func TestServerScanConcurrentWritesAndClose(t *testing.T) {
	for _, mode := range []struct {
		name string
		cfg  Config
	}{
		{"window0", Config{}},
		{"window100us", Config{CoalesceWindow: 100 * time.Microsecond, CoalesceBatch: 64}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			const writers, scanners = 4, 2
			s := newTestServer(t, mode.cfg)
			start := make(chan struct{})
			var wg sync.WaitGroup
			errc := make(chan error, writers+scanners)

			for id := 0; id < writers; id++ {
				nc, err := s.Pipe()
				if err != nil {
					t.Fatalf("Pipe: %v", err)
				}
				wg.Add(1)
				go func(id int, c *wire.Client) {
					defer wg.Done()
					defer nc.Close()
					<-start
					for b := 0; ; b++ {
						const depth = 8
						for i := 0; i < depth; i++ {
							k := fmt.Sprintf("w%08d", (id*depth+b*31+i*7)%512)
							var err error
							if i%4 == 3 {
								err = c.Send("DEL", k)
							} else {
								err = c.Send("SET", k, fmt.Sprintf("val-%s", k))
							}
							if err != nil {
								return
							}
						}
						if err := c.Flush(); err != nil {
							return
						}
						for i := 0; i < depth; i++ {
							if _, err := c.Recv(); err != nil {
								errc <- fmt.Errorf("writer %d batch %d: lost reply %d: %w", id, b, i, err)
								return
							}
						}
					}
				}(id, wire.NewClient(nc))
			}

			for id := 0; id < scanners; id++ {
				nc, err := s.Pipe()
				if err != nil {
					t.Fatalf("Pipe: %v", err)
				}
				wg.Add(1)
				go func(id int, c *wire.Client) {
					defer wg.Done()
					defer nc.Close()
					<-start
					cursor := ""
					for {
						args := []string{"SCAN", "w", "x", "16"}
						if cursor != "" {
							args = append(args, cursor)
						}
						if err := c.Send(args...); err != nil {
							return
						}
						if err := c.Flush(); err != nil {
							return
						}
						rep, err := c.Recv()
						if err != nil {
							errc <- fmt.Errorf("scanner %d: lost SCAN reply: %w", id, err)
							return
						}
						if rep.Kind != wire.ArrayReply || len(rep.Elems) == 0 || len(rep.Elems)%2 != 1 {
							errc <- fmt.Errorf("scanner %d: bad SCAN reply shape %+v", id, rep)
							return
						}
						prev := ""
						for i := 1; i < len(rep.Elems); i += 2 {
							k, v := rep.Elems[i].Str, rep.Elems[i+1].Str
							if k < "w" || k >= "x" || k <= prev {
								errc <- fmt.Errorf("scanner %d: bad page key %q after %q", id, k, prev)
								return
							}
							if v != "val-"+k {
								errc <- fmt.Errorf("scanner %d: corrupt value %q for key %q", id, v, k)
								return
							}
							prev = k
						}
						cursor = rep.Elems[0].Str // empty restarts from the top
					}
				}(id, wire.NewClient(nc))
			}

			close(start)
			for s.Stats().Scans < 10 || s.Stats().Batches < 10 {
				time.Sleep(time.Millisecond)
			}
			s.Close()
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}
		})
	}
}

// TestServerScanTTL covers SETEX and EXPIRE against GET and SCAN over the
// wire, on an injected clock: once the deadlines pass, a SCAN cursor
// chain visits exactly the live keys, in full pages, and GET of an
// expired key is nil — also after it was warmed into the front cache.
func TestServerScanTTL(t *testing.T) {
	var now atomic.Int64
	now.Store(time.Now().UnixNano())
	c := pipeClient(t, newTestServer(t, Config{Clock: now.Load}))
	var live []string
	for i := range 60 {
		k := fmt.Sprintf("s%03d", i)
		if err := c.Set(k, "v"+k); err != nil {
			t.Fatal(err)
		}
		var r wire.Reply
		var err error
		switch i % 4 {
		case 0:
			live = append(live, k)
			continue
		case 1:
			r, err = c.Do("SETEX", k, "10", "w"+k)
		case 2:
			r, err = c.Do("EXPIRE", k, "10")
		case 3:
			live = append(live, k) // a far deadline: still live below
			r, err = c.Do("EXPIRE", k, "1000")
		}
		if err != nil || r.Kind == wire.ErrorReply {
			t.Fatalf("TTL on %s: %+v, %v", k, r, err)
		}
	}
	for range 3 { // a miss, then front hits
		if v, ok, err := c.Get("s001"); err != nil || !ok || v != "ws001" {
			t.Fatalf("GET s001 before its deadline = (%q, %v, %v)", v, ok, err)
		}
	}
	now.Add(20 * int64(time.Second))

	var got []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > len(live) {
			t.Fatal("SCAN chain did not terminate")
		}
		args := []string{"SCAN", "s", "t", "5"}
		if cursor != "" {
			args = append(args, cursor)
		}
		r, err := c.Do(args...)
		if err != nil || r.Kind != wire.ArrayReply {
			t.Fatalf("SCAN: %+v, %v", r, err)
		}
		for i := 1; i < len(r.Elems); i += 2 {
			got = append(got, r.Elems[i].Str)
		}
		cursor = r.Elems[0].Str
		if cursor == "" {
			break
		}
		if n := (len(r.Elems) - 1) / 2; n != 5 {
			t.Fatalf("SCAN page with a cursor carries %d pairs, want 5", n)
		}
	}
	if fmt.Sprint(got) != fmt.Sprint(live) {
		t.Fatalf("SCAN chain visited %v, want %v", got, live)
	}
	// After the scan: the GETs' commit boundaries sweep the expired keys,
	// which the pages above must have left out before any sweep ran.
	for _, k := range []string{"s001", "s002", "s005"} {
		if v, ok, err := c.Get(k); err != nil || ok {
			t.Fatalf("GET %s after its deadline = (%q, %v, %v), want nil", k, v, ok, err)
		}
	}
}
