package server

// The server-side allocation ceilings and the aliasing-safety tests of the
// zero-copy reader path (E18 in docs/history/EXPERIMENTS_E18-E23.md,
// DESIGN.md "Allocation discipline"). Each ceiling is 2 × the worst
// reading at GOMAXPROCS 1, 2 and 4, plus 4.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestAllocsServerPipeRoundTrip bounds the allocations of one pipelined
// round trip (depth-8 GET pipeline) over Server.Pipe, covering wire
// decode, batch assembly, sharded Apply and reply encode. Skipped under
// -race (instrumentation inflates counts).
func TestAllocsServerPipeRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	srv := New(Config{})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	const depth = 8
	keys := [depth]string{}
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := cl.Set(keys[i], "value"); err != nil {
			t.Fatal(err)
		}
	}
	pipeline := func() {
		for _, k := range keys {
			if err := cl.Send("GET", k); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			t.Fatal(err)
		}
		for range keys {
			if r, err := cl.Recv(); err != nil || r.Kind != wire.BulkReply {
				t.Fatalf("reply %+v, err %v", r, err)
			}
		}
	}
	pipeline() // warm both codecs and the batch path
	// Measured 0 allocs per depth-8 pipeline at GOMAXPROCS 1/2/4, client
	// decoding included; was ~430 before the zero-allocation work.
	const ceiling = 4
	if n := testing.AllocsPerRun(50, pipeline); n > ceiling {
		t.Errorf("depth-%d pipelined round trip: %.1f allocs, ceiling %d", depth, n, ceiling)
	}
}

// TestAllocsServerCoalescedRoundTrip bounds the allocations of one
// depth-1 GET round trip with a coalescing window armed: wire decode, job
// submission, window timer, combined-batch commit, reply render. The
// connection's one reused job frame, the coalescer's reused cut/commit
// scratch and the scattered-collect path must keep the steady state
// flat. Skipped under -race (instrumentation inflates counts).
func TestAllocsServerCoalescedRoundTrip(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	// A tiny window keeps AllocsPerRun fast while still exercising the
	// full submit→cut→commit→render machinery.
	srv := New(Config{CoalesceWindow: 20 * time.Microsecond})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	if err := cl.Set("key", "value"); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		if v, ok, err := cl.Get("key"); err != nil || !ok || v != "value" {
			t.Fatalf("GET = (%q, %v, %v)", v, ok, err)
		}
	}
	for i := 0; i < 4; i++ {
		roundTrip() // warm codecs, the job frame, coalescer scratch
	}
	// Measured 0 allocs per depth-1 round trip at GOMAXPROCS 1/2/4, client
	// decoding and segment-tree node churn included (see the node
	// free-list notes in DESIGN.md "Allocation discipline").
	const ceiling = 4
	if n := testing.AllocsPerRun(50, roundTrip); n > ceiling {
		t.Errorf("coalesced depth-1 round trip: %.1f allocs, ceiling %d", n, ceiling)
	}
}

// TestServerNoArenaRetention is the server half of the wire.Reader
// aliasing contract: nothing the server stores may alias a connection's
// read arena, and a segment's arena-backed keys stay valid until its
// combined batch commits (the connection waits for every segment before
// the arena recycles). It stores values through every insert form,
// churns the connection's arena with unrelated traffic of the same byte
// shapes, and checks the stored data is intact (the server relies on
// insert-key cloning plus the engine's insert-key rebinding for combined
// search+insert groups) under both cut policies. (The "m1" subtest level
// is the server's engine name, kept from when the table had two rows.)
func TestServerNoArenaRetention(t *testing.T) {
	t.Run("m1", func(t *testing.T) {
		forWindows(t, func(t *testing.T, cfg Config) {
			srv := New(cfg)
			defer srv.Close()
			nc, err := srv.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			cl := wire.NewClient(nc)

			// One pipeline that combines a miss-GET and a SET of the
			// same key in a single batch: the engine groups them, and
			// the group's insertion must store the SET's copied key,
			// not the GET's arena-backed one.
			cl.Send("GET", "combined")
			cl.Send("SET", "combined", "cv")
			cl.Send("MSET", "mk1", "mv1", "mk2", "mv2")
			if err := cl.Flush(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := cl.Recv(); err != nil {
					t.Fatal(err)
				}
			}

			// Churn the arena: same-shaped traffic overwrites the
			// bytes the previous pipeline's strings lived in.
			for i := 0; i < 8; i++ {
				cl.Send("GET", "XXXXXXXX")
				cl.Send("SET", "YYYYYYYY", "ZZ")
				cl.Send("MSET", "AB1", "CD1", "AB2", "CD2")
				if err := cl.Flush(); err != nil {
					t.Fatal(err)
				}
				for j := 0; j < 3; j++ {
					if _, err := cl.Recv(); err != nil {
						t.Fatal(err)
					}
				}
			}

			for k, want := range map[string]string{
				"combined": "cv", "mk1": "mv1", "mk2": "mv2",
			} {
				v, ok, err := cl.Get(strings.Clone(k))
				if err != nil || !ok || v != want {
					t.Fatalf("GET %s = (%q, %v, %v), want %q", k, v, ok, err, want)
				}
			}
		})
	})
}

// TestAllocsServerScan bounds the allocations of one 64-pair SCAN cursor
// page over Server.Pipe: wire decode, the broadcast batched range read
// (pooled shard scratch + engine range scratch + reused page buffer),
// cursor encode and the array reply. Most of the measured count is the
// client decoding 129 reply frames; the server side stays flat. Skipped
// under -race (instrumentation inflates counts).
func TestAllocsServerScan(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	srv := New(Config{})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	for i := 0; i < 1024; i++ {
		if err := cl.Set(fmt.Sprintf("k%08d", i), "value"); err != nil {
			t.Fatal(err)
		}
	}
	page := func() {
		r, err := cl.Do("SCAN", "k", "l", "64")
		if err != nil || r.Kind != wire.ArrayReply || len(r.Elems) != 129 {
			t.Fatalf("SCAN page: %+v, %v", r, err)
		}
	}
	page() // warm codecs, range scratch pools, page buffer
	// Measured 4 allocs per 64-pair page at GOMAXPROCS 1/2/4 (5/6/8 while
	// each shard's range took a pooled call frame): cursor token and
	// reply frame headers; the broadcast + merge + page buffer machinery
	// is fully pooled.
	const ceiling = 12
	if n := testing.AllocsPerRun(50, page); n > ceiling {
		t.Errorf("64-pair SCAN page: %.1f allocs, ceiling %d", n, ceiling)
	}
}
