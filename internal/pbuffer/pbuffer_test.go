package pbuffer

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAllOpsDeliveredExactlyOnce(t *testing.T) {
	b := New[int64](8)
	const producers = 8
	const perProducer = 20000
	var wg sync.WaitGroup
	var next atomic.Int64
	for g := 0; g < producers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				b.Add(next.Add(1))
			}
		}()
	}
	seen := make(map[int64]bool)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var flushes int
	collect := func() {
		for _, v := range b.Flush() {
			if seen[v] {
				t.Errorf("value %d delivered twice", v)
			}
			seen[v] = true
		}
		flushes++
	}
	for {
		select {
		case <-done:
			collect() // final flush picks up stragglers
			collect()
			if len(seen) != producers*perProducer {
				t.Fatalf("delivered %d of %d", len(seen), producers*perProducer)
			}
			if b.Len() != 0 {
				t.Fatalf("Len = %d after drain", b.Len())
			}
			return
		default:
			collect()
		}
	}
}

func TestFlushEmpty(t *testing.T) {
	b := New[int](4)
	if got := b.Flush(); got != nil {
		t.Fatalf("Flush of empty buffer = %v", got)
	}
}

func TestLenTracksAdds(t *testing.T) {
	b := New[int](2)
	for i := 0; i < 10; i++ {
		b.Add(i)
	}
	if b.Len() != 10 {
		t.Fatalf("Len = %d", b.Len())
	}
	if got := len(b.Flush()); got != 10 {
		t.Fatalf("flushed %d", got)
	}
	if b.Len() != 0 {
		t.Fatalf("Len after flush = %d", b.Len())
	}
}

// TestLenNeverUnderReports pins the invariant the engines' ready
// conditions rest on: a flush can only take operations Len already
// counts, so Len never dips below zero (an under-report read as "empty"
// by an engine about to go idle strands whatever is still buffered).
func TestLenNeverUnderReports(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	b := New[int](2)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for a := 0; a < 3; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if i%2 == 0 {
					b.Add(i)
				} else {
					b.AddAll([]int{i, i})
				}
			}
		}()
	}
	var sc []int
	for i := 0; i < 50000; i++ {
		sc = b.FlushInto(sc[:0])
		if n := b.Len(); n < 0 {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("flush %d: Len = %d with adders in flight", i, n)
		}
	}
	stop.Store(true)
	wg.Wait()
}
