package server

// The pipelined-server member of the hot-path benchmark suite (see the
// root package's hotpath_bench_test.go and E18 in
// docs/history/EXPERIMENTS_E18-E23.md); it lives
// here because internal/server cannot be imported from the root package's
// tests (import cycle).

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// BenchmarkHotPathServerPipe measures the full pipelined server path: 16
// in-process connections, each writing a depth-16 GET pipeline and reading
// its 16 replies per iteration — wire decode, batch assembly, sharded
// Apply, reply encode. ns/op and allocs/op are per round-trip of one
// whole pipeline on one connection.
func BenchmarkHotPathServerPipe(b *testing.B) {
	const conns, depth = 16, 16
	srv := New(Config{})
	defer srv.Close()

	clients := make([]*wire.Client, conns)
	ncs := make([]net.Conn, conns)
	for i := range clients {
		nc, err := srv.Pipe()
		if err != nil {
			b.Fatal(err)
		}
		ncs[i] = nc
		clients[i] = wire.NewClient(nc)
	}
	// Populate and warm every connection once.
	for i, cl := range clients {
		if _, err := cl.Do("SET", fmt.Sprintf("key-%d", i), "value"); err != nil {
			b.Fatal(err)
		}
	}
	pipeline := func(cl *wire.Client, id int) error {
		keys := [depth]string{}
		for j := range keys {
			keys[j] = fmt.Sprintf("key-%d", (id+j)%conns)
		}
		for _, k := range keys {
			if err := cl.Send("GET", k); err != nil {
				return err
			}
		}
		if err := cl.Flush(); err != nil {
			return err
		}
		for range keys {
			if _, err := cl.Recv(); err != nil {
				return err
			}
		}
		return nil
	}
	for i, cl := range clients {
		if err := pipeline(cl, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / conns
	ext := b.N % conns
	for i, cl := range clients {
		n := per
		if i < ext {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(cl *wire.Client, id, n int) {
			defer wg.Done()
			for it := 0; it < n; it++ {
				if err := pipeline(cl, id); err != nil {
					b.Error(err)
					return
				}
			}
		}(cl, i, n)
	}
	wg.Wait()
	b.StopTimer()
	for _, nc := range ncs {
		nc.Close()
	}
}

// BenchmarkHotPathServerCoalesced measures the depth-1 group-commit path:
// 64 in-process connections, each doing unpipelined GET round trips,
// with the cross-connection coalescer merging everyone's single ops into
// combined batches. ns/op is per GET round trip on one connection; the
// interesting outputs are the throughput relative to the same shape
// without coalescing (E19 in docs/history/EXPERIMENTS_E18-E23.md,
// raw rows in docs/history/BENCH_0004.json) and allocs/op staying
// within the zero-allocation discipline.
func BenchmarkHotPathServerCoalesced(b *testing.B) {
	const conns = 64
	srv := New(Config{CoalesceWindow: 100 * time.Microsecond, CoalesceBatch: conns})
	defer srv.Close()

	clients := make([]*wire.Client, conns)
	ncs := make([]net.Conn, conns)
	for i := range clients {
		nc, err := srv.Pipe()
		if err != nil {
			b.Fatal(err)
		}
		ncs[i] = nc
		clients[i] = wire.NewClient(nc)
	}
	keys := make([]string, conns)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i%8)
	}
	for i, cl := range clients {
		if _, err := cl.Do("SET", keys[i], "value"); err != nil {
			b.Fatal(err)
		}
	}
	roundTrip := func(cl *wire.Client, id int) error {
		_, _, err := cl.Get(keys[id])
		return err
	}
	for i, cl := range clients {
		if err := roundTrip(cl, i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	per := b.N / conns
	ext := b.N % conns
	for i, cl := range clients {
		n := per
		if i < ext {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(cl *wire.Client, id, n int) {
			defer wg.Done()
			for it := 0; it < n; it++ {
				if err := roundTrip(cl, id); err != nil {
					b.Error(err)
					return
				}
			}
		}(cl, i, n)
	}
	wg.Wait()
	b.StopTimer()
	for _, nc := range ncs {
		nc.Close()
	}
}

// BenchmarkHotPathServerScan measures one SCAN cursor page end to end
// over Server.Pipe: wire decode, the broadcast batched range read, and
// the 2·count+1-frame reply encode/decode. ns/op is per 64-pair page
// round trip; concurrent writers are deliberately absent so the number
// is the scan path itself (E20 in docs/history/EXPERIMENTS_E18-E23.md has the
// interference story).
func BenchmarkHotPathServerScan(b *testing.B) {
	srv := New(Config{})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		b.Fatal(err)
	}
	defer nc.Close()
	cl := wire.NewClient(nc)
	for i := 0; i < 1024; i++ {
		if err := cl.Set(fmt.Sprintf("k%08d", i), "value"); err != nil {
			b.Fatal(err)
		}
	}
	page := func() error {
		r, err := cl.Do("SCAN", "k", "l", "64")
		if err != nil {
			return err
		}
		if r.Kind != wire.ArrayReply || len(r.Elems) != 129 {
			return fmt.Errorf("bad SCAN reply: kind %v, %d elems", r.Kind, len(r.Elems))
		}
		return nil
	}
	if err := page(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := page(); err != nil {
			b.Fatal(err)
		}
	}
}
