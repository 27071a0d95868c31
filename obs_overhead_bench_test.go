package pws

// The telemetry overhead pair of docs/history/BENCH_0007.json: the same warm M1 Get
// with the depth-telemetry sink detached and attached. The delta is the
// whole per-operation cost of the observability layer on the engine hot
// path — a handful of atomic adds per resolved group — and CI's bench
// smoke keeps the pair building and running.
//
//	go test -run '^$' -bench 'BenchmarkHotPathObsOverhead' -benchmem .

import "testing"

func benchWarmGet(b *testing.B, o Options) {
	m := NewM1[int, int](o)
	defer m.Close()
	for i := 0; i < 1024; i++ {
		m.Insert(i, i)
	}
	m.Get(7) // warm: promote to S[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Get(7)
	}
}

// BenchmarkHotPathObsOverheadOff is the baseline: no telemetry sink, so
// every record site takes its nil-receiver fast path.
func BenchmarkHotPathObsOverheadOff(b *testing.B) {
	benchWarmGet(b, Options{})
}

// BenchmarkHotPathObsOverheadOn attaches a live depth sink, the
// configuration every server-built map runs with.
func BenchmarkHotPathObsOverheadOn(b *testing.B) {
	benchWarmGet(b, Options{Obs: &EngineTelemetry{}})
}

// TestAllocsInstrumentedM1Get holds the warm M1 Get to the same
// allocation ceiling as TestAllocsWarmM1Get with the depth sink
// attached: recording must not allocate. Skipped under -race
// (instrumentation inflates counts).
func TestAllocsInstrumentedM1Get(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts inflated under -race")
	}
	sink := &EngineTelemetry{}
	m := NewM1[int, int](Options{Obs: sink})
	defer m.Close()
	for i := 0; i < 1024; i++ {
		m.Insert(i, i)
	}
	m.Get(7)
	const ceiling = 4 // same as the uninstrumented ceiling; measured 0 at GOMAXPROCS 1/2/4
	if n := testing.AllocsPerRun(200, func() { m.Get(7) }); n > ceiling {
		t.Errorf("instrumented warm M1 Get: %.1f allocs/op, ceiling %d", n, ceiling)
	}
	if s := sink.Snapshot(); s.Depth.Count == 0 {
		t.Error("depth sink recorded nothing during the measured gets")
	}
}
