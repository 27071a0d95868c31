package server

// Server-level correctness tests for the hot-key front cache: a write
// acknowledged in one batch must never be shadowed by a cached GET in a
// later batch, with or without a coalescing window.

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestServerFrontCacheNoStaleRead hammers one hot key: a writer
// alternates acked SET n / GET (which must return exactly n — the SET
// committed in batch N, so a cached GET in batch N+1 may not serve the
// old value), while reader connections keep the key hot in the front
// cache and assert their reads are monotone (each read linearizes after
// the reader's previous read completed). Run with a tiny cache so
// eviction/recycling races are exercised too.
func TestServerFrontCacheNoStaleRead(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{Shards: 2, FrontCache: 64}},
		{"coalesced", Config{Shards: 2, FrontCache: 64, CoalesceWindow: 20 * time.Microsecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := New(tc.cfg)
			defer srv.Close()

			const (
				readers = 3
				rounds  = 400
			)
			client := func() *wire.Client {
				nc, err := srv.Pipe()
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { nc.Close() })
				return wire.NewClient(nc)
			}

			w := client()
			if err := w.Set("hot", "0"); err != nil {
				t.Fatal(err)
			}

			var done atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, readers)
			for r := 0; r < readers; r++ {
				cl := client()
				wg.Add(1)
				go func() {
					defer wg.Done()
					last := -1
					for i := 0; !done.Load(); i++ {
						// Three readers spinning on front hits can keep
						// the writer's connection off both Ps for whole
						// time slices (seconds per run on two cores). A
						// rare yield bounds the run without serializing
						// the readers against the writer; the sharp
						// regression test for the interleaving itself is
						// shard.TestFrontCacheNoStaleRead.
						if i%1024 == 1023 {
							runtime.Gosched()
						}
						v, ok, err := cl.Get("hot")
						if err != nil {
							errc <- err
							return
						}
						if !ok {
							errc <- fmt.Errorf("hot key missing")
							return
						}
						n, err := strconv.Atoi(v)
						if err != nil {
							errc <- fmt.Errorf("hot = %q: %v", v, err)
							return
						}
						if n < last {
							errc <- fmt.Errorf("non-monotone read: %d after %d", n, last)
							return
						}
						last = n
					}
				}()
			}

			for i := 1; i <= rounds; i++ {
				v := strconv.Itoa(i)
				// The SET's reply is read before the GET is sent, so they
				// are separate batches: the GET may be served from the
				// front cache only if the SET's resolution already
				// dropped the stale entry.
				if err := w.Set("hot", v); err != nil {
					t.Fatal(err)
				}
				got, ok, err := w.Get("hot")
				if err != nil || !ok {
					t.Fatalf("GET hot: %q, %v, %v", got, ok, err)
				}
				if got != v {
					t.Fatalf("round %d: GET after acked SET = %q, want %q (stale cached read)", i, got, v)
				}
			}
			// On a loaded test machine the readers may barely get
			// scheduled while the writer rounds run. Once the writes
			// stop, the next reader read repopulates the front and the
			// ones after it must hit — wait for that before stopping
			// the readers, so the hit assertion below is not a race
			// against the scheduler.
			for deadline := time.Now().Add(10 * time.Second); ; {
				fs, ok := srv.Front()
				if ok && fs.Hits > 0 || time.Now().After(deadline) {
					break
				}
				time.Sleep(time.Millisecond)
			}
			done.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Error(err)
			}

			fs, ok := srv.Front()
			if !ok {
				t.Fatal("front cache not enabled")
			}
			if fs.Hits == 0 || fs.Invalidates == 0 {
				t.Errorf("front cache idle during the run: %+v (want hits and invalidates)", fs)
			}
		})
	}
}

// TestServerFrontCachePipelinedWrite covers the in-pipeline shadow: a
// pipeline carrying SET k / GET k in one batch must answer the GET from
// the engine (program order), not from a front entry installed by an
// earlier batch.
func TestServerFrontCachePipelinedWrite(t *testing.T) {
	srv := New(Config{Shards: 2, FrontCache: 64})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)

	if err := cl.Set("k", "old"); err != nil {
		t.Fatal(err)
	}
	// Warm the front cache with the old value.
	if v, ok, err := cl.Get("k"); err != nil || !ok || v != "old" {
		t.Fatalf("warm GET = %q, %v, %v", v, ok, err)
	}
	for i := 0; i < 50; i++ {
		v := strconv.Itoa(i)
		// One pipeline, one batch: GET (may hit the front), SET, GET
		// (must see the SET despite the cached entry).
		for _, args := range [][]string{{"GET", "k"}, {"SET", "k", v}, {"GET", "k"}} {
			if err := cl.Send(args...); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 3; j++ {
			rep, err := cl.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if j == 2 && (rep.Kind != wire.BulkReply || rep.Str != v) {
				t.Fatalf("iter %d: pipelined GET after SET = %+v, want %q", i, rep, v)
			}
		}
	}
}
