package server

// Tests for what a coalescing window adds to the one write path: reply
// integrity per connection while ops merge across connections, the
// cross-connection batching thesis itself, and teardown of a connection
// whose write side died. Behaviour that must hold at any window runs
// under forWindows in server_test.go. All run under -race in CI.

import (
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// coalescedConfig is the test default: a window wide enough to merge
// concurrent test traffic reliably, small enough to keep tests fast.
func coalescedConfig() Config {
	return Config{CoalesceWindow: 200 * time.Microsecond, CoalesceBatch: 64}
}

// TestServerCoalescedExactReplies is the coalescer's integrity test: many
// concurrent unpipelined (depth-1) connections over disjoint key spaces,
// every reply checked exactly against a local model. The group-commit
// scheduler must never lose, reorder or cross-wire a connection's
// replies while merging everyone's ops into combined batches.
func TestServerCoalescedExactReplies(t *testing.T) {
	const (
		conns  = 8
		rounds = 150
		keys   = 30
	)
	s := newTestServer(t, coalescedConfig())
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
			rng := rand.New(rand.NewSource(int64(2000 + id)))
			model := map[string]string{}
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("c%d-k%03d", id, rng.Intn(keys))
				switch rng.Intn(3) {
				case 0:
					v, ok := model[k]
					got, gotOK, err := c.Get(k)
					if err != nil || gotOK != ok || got != v {
						errc <- fmt.Errorf("conn %d round %d: GET %s = (%q,%v,%v), want (%q,%v)",
							id, r, k, got, gotOK, err, v, ok)
						return
					}
				case 1:
					v := fmt.Sprintf("v%d", r)
					if err := c.Set(k, v); err != nil {
						errc <- fmt.Errorf("conn %d round %d: SET: %w", id, r, err)
						return
					}
					model[k] = v
				default:
					want := int64(0)
					if _, ok := model[k]; ok {
						want = 1
					}
					n, err := c.Del(k)
					if err != nil || n != want {
						errc <- fmt.Errorf("conn %d round %d: DEL %s = (%d,%v), want %d",
							id, r, k, n, err, want)
						return
					}
					delete(model, k)
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
	// Front-cache hits are answered before the window and appear in no
	// combined batch; batch ops plus front hits must account for every
	// command exactly.
	fs, _ := s.Front()
	if st.Ops+fs.Hits != conns*rounds {
		t.Errorf("ops+front hits = %d+%d, want %d", st.Ops, fs.Hits, conns*rounds)
	}
	// Depth-1 traffic from 8 concurrent conns must have coalesced: far
	// fewer map batches than ops.
	if st.Batches >= st.Ops {
		t.Errorf("no cross-connection coalescing: %d batches for %d ops", st.Batches, st.Ops)
	}
	t.Logf("coalesced: %d ops in %d batches (avg %.1f, max %d), %d front hits",
		st.Ops, st.Batches, st.AvgBatch(), st.MaxBatch, fs.Hits)
}

// TestServerCoalescedDuplicateAcrossConns checks that simultaneous
// same-key traffic from different connections rides one combined batch
// (cross-connection duplicate combining) and that both connections still
// get exact replies. The front cache is off: it would answer all but the
// first GETs of the hot key, leaving no batch to combine.
//
// The coalescer waits only for the connections its last cut answered, and
// for each of them at most one window, so the test sets up both sides of
// that rule: both connections' first commands ride the cold window's cut,
// and the window is wide enough that a client the OS leaves unscheduled
// for a few milliseconds (the race detector on an overcommitted machine)
// is still waited for. At 1ms, or with one client's first command a
// round behind, the other runs its GETs alone until it finishes.
func TestServerCoalescedDuplicateAcrossConns(t *testing.T) {
	const rounds = 100
	s := newTestServer(t, Config{CoalesceWindow: 50 * time.Millisecond, CoalesceBatch: 1 << 20, FrontCache: -1})
	a := pipeClient(t, s)
	b := pipeClient(t, s)
	var wg sync.WaitGroup
	set := func(c *wire.Client, k string) {
		defer wg.Done()
		if err := c.Set(k, "v0"); err != nil {
			t.Errorf("SET %s: %v", k, err)
		}
	}
	wg.Add(2)
	go set(a, "hot")
	go set(b, "warm")
	wg.Wait()
	get := func(c *wire.Client) {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			v, ok, err := c.Get("hot")
			if err != nil || !ok || !strings.HasPrefix(v, "v") {
				t.Errorf("round %d: GET hot = (%q,%v,%v)", r, v, ok, err)
				return
			}
		}
	}
	wg.Add(2)
	go get(a)
	go get(b)
	wg.Wait()
	st := s.Stats()
	// 202 ops total; with two closed-loop clients inside the window the
	// two sides' GETs overwhelmingly share batches.
	if st.Batches > st.Ops*3/4 {
		t.Errorf("same-key gets from two conns did not coalesce: %d batches for %d ops",
			st.Batches, st.Ops)
	}
	if cs := s.CoalesceStats(); cs.Batches != st.Batches {
		t.Errorf("coalescer stats disagree with server stats: %+v vs %+v", cs, st)
	}
	t.Logf("%d ops in %d batches (avg %.1f)", st.Ops, st.Batches, st.AvgBatch())
}

// deadWriteConn wraps a net.Conn so writes fail while reads keep
// working — the shape of a peer that shut down its receive direction.
type deadWriteConn struct {
	net.Conn
}

func (c deadWriteConn) Write(b []byte) (int, error) {
	return 0, fmt.Errorf("simulated dead write side")
}

// TestServerDeadWriter checks that a connection tears itself down when
// its write side dies: the end-of-pipeline flush failure must end the
// connection and release it, not keep serving a peer that can never hear
// the answers.
func TestServerDeadWriter(t *testing.T) {
	s := newTestServer(t, Config{})
	cl, sv := net.Pipe()
	defer cl.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		s.ServeConn(deadWriteConn{sv})
	}()
	// Keep sending unpipelined GETs; replies are never read (the server's
	// writes fail), so the connection must end on its own.
	w := wire.NewWriter(cl)
	for i := 0; i < 100; i++ {
		if err := w.WriteCommand("GET", "k"); err != nil {
			break
		}
		if err := w.Flush(); err != nil {
			break // server closed the transport: the fix worked
		}
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("connection with a dead write side was never torn down")
	}
	for i := 0; i < 1000 && s.Stats().ActiveConns != 0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := s.Stats().ActiveConns; n != 0 {
		t.Fatalf("dead connection still registered: ActiveConns = %d", n)
	}
}

// TestServerCoalescedLoneClientNoHandoffs pins the uncontended cut: a
// lone depth-1 client's every command is cut by its own connection
// goroutine, which finds no cut running, and touches one shard, whose
// sub-batch that goroutine applies without waking a worker. So no cut
// needs a leader woken and no sub-batch reaches a shard worker.
func TestServerCoalescedLoneClientNoHandoffs(t *testing.T) {
	const rounds = 500
	forWindows(t, func(t *testing.T, cfg Config) {
		s := newTestServer(t, cfg)
		cl := pipeClient(t, s)
		for i := range rounds {
			k := fmt.Sprintf("k%03d", i%97)
			if err := cl.Set(k, "v"); err != nil {
				t.Fatal(err)
			}
			if v, ok, err := cl.Get(k); err != nil || !ok || v != "v" {
				t.Fatalf("GET %s = (%q, %v, %v)", k, v, ok, err)
			}
		}
		st := s.CoalesceStats()
		caller, worker := s.store.FanoutStats()
		if st.Handoffs != 0 || worker != 0 {
			t.Errorf("lone client: %d hand-offs over %d cuts, %d sub-batches on a worker; want 0 and 0",
				st.Handoffs, st.Batches, worker)
		}
		if caller < rounds {
			t.Errorf("lone client: %d sub-batches applied by the caller, want at least the %d SETs", caller, rounds)
		}
	})
}
