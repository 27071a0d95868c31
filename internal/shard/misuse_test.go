package shard

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Shutdown and misuse tests, mirroring internal/core/misuse_test.go: the
// sharded front-end must fail loudly on contract violations and shut down
// cleanly under racing clients.

func TestShardedUseAfterClosePanics(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 2, P: 2})
		m.Insert(1, 1)
		m.Close()
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic on use after Close")
			}
		}()
		m.Get(1)
	})
}

// TestShardedDoubleClose checks Close is idempotent: repeated and
// concurrent Closes all return, and none panics.
func TestShardedDoubleClose(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 2, P: 2})
		m.Insert(1, 1)
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Close()
			}()
		}
		wg.Wait()
		m.Close() // and once more, sequentially
	})
}

// TestShardedCloseRacesOperations runs clients that hammer the map while
// Close fires concurrently. Every operation must either complete normally
// (it entered before Close) or panic with the use-after-Close contract
// violation — never deadlock, corrupt state, or return garbage.
func TestShardedCloseRacesOperations(t *testing.T) {
	t.Run(engine, func(t *testing.T) {
		m := New[int, int](Config{Shards: 4, P: 2})
		const clients = 8
		var completed, panicked atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				defer func() {
					if recover() != nil {
						panicked.Add(1)
					}
				}()
				for i := 0; ; i++ {
					k := c*1000 + i%100
					m.Insert(k, i)
					m.Get(k)
					completed.Add(1)
				}
			}(c)
		}
		time.Sleep(2 * time.Millisecond)
		m.Close()
		wg.Wait()
		if panicked.Load() != clients {
			t.Fatalf("%d clients panicked, want %d (no client may hang)",
				panicked.Load(), clients)
		}
		if completed.Load() == 0 {
			t.Fatal("no operation completed before Close")
		}
	})
}
