package loadgen

import (
	"net"
	"testing"

	"repro/internal/server"
)

func dialer(t *testing.T, s *server.Server) func() (net.Conn, error) {
	t.Helper()
	return func() (net.Conn, error) { return s.Pipe() }
}

// TestLoadgenWorkloads drives an in-process wsd with the zipf and
// working-set workloads (the acceptance pair) plus uniform, and checks
// the reports are complete: all ops accounted for, no errors, positive
// throughput, ordered percentiles.
func TestLoadgenWorkloads(t *testing.T) {
	for _, w := range []Workload{Zipf, WorkingSet, Uniform} {
		t.Run(string(w), func(t *testing.T) {
			s := server.New(server.Config{Shards: 4, P: 2})
			defer s.Close()
			cfg := Config{
				Conns:    4,
				Depth:    16,
				Ops:      4096,
				Workload: w,
				Universe: 2048,
				Preload:  true,
				Seed:     7,
			}
			rep, err := Run(cfg, dialer(t, s))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if rep.Ops != cfg.Ops {
				t.Errorf("ops = %d, want %d", rep.Ops, cfg.Ops)
			}
			if rep.Errors != 0 {
				t.Errorf("errors = %d", rep.Errors)
			}
			if rep.OpsPerSec <= 0 {
				t.Errorf("ops/s = %f", rep.OpsPerSec)
			}
			if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.Max < rep.P99 {
				t.Errorf("percentiles out of order: p50=%v p99=%v max=%v", rep.P50, rep.P99, rep.Max)
			}
			// Preload inserted the whole universe; the run only adds keys
			// within it. Front-cache hits are answered before the batch
			// pipeline, so they count separately from engine ops.
			st := s.Stats()
			fs, _ := s.Front()
			if st.Ops+fs.Hits < int64(cfg.Ops+cfg.Universe) {
				t.Errorf("server saw %d ops (+%d front hits), want >= %d",
					st.Ops, fs.Hits, cfg.Ops+cfg.Universe)
			}
			t.Log(rep.String())
		})
	}
}

// TestLoadgenPipelineBatching is the acceptance check that a pipelined
// load run submits measurably fewer, larger batches than an unpipelined
// one, asserted via server batch stats. An unpipelined run is not one
// batch per op: every connection feeds the one coalescer, so depth-1
// commands of different connections that arrive together share a cut.
// What is promised is that a cut never holds two commands of one
// unpipelined connection.
func TestLoadgenPipelineBatching(t *testing.T) {
	const conns = 4
	run := func(depth int) (Report, server.Stats) {
		// Front cache off: hot GETs answered ahead of the pipeline would
		// skew the batch counts this test is about.
		s := server.New(server.Config{Shards: 4, P: 2, FrontCache: -1})
		defer s.Close()
		rep, err := Run(Config{
			Conns:    conns,
			Depth:    depth,
			Ops:      2048,
			Workload: Zipf,
			Universe: 1024,
			Seed:     11,
		}, dialer(t, s))
		if err != nil {
			t.Fatalf("Run(depth=%d): %v", depth, err)
		}
		return rep, s.Stats()
	}
	repP, stP := run(16)
	repU, stU := run(1)
	if repP.Ops != repU.Ops {
		t.Fatalf("unequal op counts: %d vs %d", repP.Ops, repU.Ops)
	}
	if stU.Batches > int64(repU.Ops) || stU.AvgBatch() > conns {
		t.Errorf("unpipelined run: %d batches (avg %.2f) for %d ops on %d connections", stU.Batches, stU.AvgBatch(), repU.Ops, conns)
	}
	if stP.Batches*4 > stU.Batches {
		t.Errorf("pipelined run not measurably fewer batches: %d vs %d", stP.Batches, stU.Batches)
	}
	if stP.AvgBatch() < 4*stU.AvgBatch() {
		t.Errorf("pipelined batches not measurably larger: avg %.2f vs %.2f", stP.AvgBatch(), stU.AvgBatch())
	}
	t.Logf("depth 16: %d batches (avg %.1f); depth 1: %d batches (avg %.1f)",
		stP.Batches, stP.AvgBatch(), stU.Batches, stU.AvgBatch())
}

// TestLoadgenTCP runs the same loop over a real TCP listener, end to
// end: wsd serving on loopback, wsload dialing it.
func TestLoadgenTCP(t *testing.T) {
	s := server.New(server.Config{Shards: 2, P: 2})
	defer s.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go s.Serve(l)
	addr := l.Addr().String()
	rep, err := Run(Config{
		Conns:    2,
		Depth:    8,
		Ops:      512,
		Workload: WorkingSet,
		Universe: 256,
		Preload:  true,
		Seed:     3,
	}, func() (net.Conn, error) { return net.Dial("tcp", addr) })
	if err != nil {
		t.Fatalf("Run over TCP: %v", err)
	}
	if rep.Ops != 512 || rep.Errors != 0 {
		t.Fatalf("TCP run: %+v", rep)
	}
	t.Log(rep.String())
}

// TestLoadgenPureSet checks the negative-GetFrac sentinel: a pure-SET
// run must issue no GETs (GetFrac zero value would silently mean 90%
// GETs otherwise).
func TestLoadgenPureSet(t *testing.T) {
	s := server.New(server.Config{Shards: 2, P: 2})
	defer s.Close()
	rep, err := Run(Config{
		Conns:    2,
		Depth:    8,
		Ops:      256,
		Workload: Uniform,
		Universe: 128,
		GetFrac:  -1,
		Seed:     5,
	}, dialer(t, s))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := s.Stats()
	if st.Gets != 0 {
		t.Errorf("pure-SET run issued %d GETs", st.Gets)
	}
	if st.Sets != int64(rep.Ops) {
		t.Errorf("sets = %d, want %d", st.Sets, rep.Ops)
	}
}

// TestLoadgenUnknownWorkload checks the error path.
func TestLoadgenUnknownWorkload(t *testing.T) {
	s := server.New(server.Config{Shards: 2, P: 2})
	defer s.Close()
	if _, err := Run(Config{Workload: "nope", Ops: 8}, dialer(t, s)); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
