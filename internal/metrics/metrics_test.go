package metrics

import (
	"sync"
	"testing"
)

func TestNilCounterIsSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Work() != 0 || c.Total() != 0 {
		t.Fatal("nil counter should read zero")
	}
	c.Reset()
	if c.Snapshot() != (Snapshot{}) {
		t.Fatal("nil counter snapshot should be zero")
	}
}

func TestCounterAccumulates(t *testing.T) {
	c := &Counter{}
	c.Add(10)
	c.Add(7)
	if c.Total() != 17 {
		t.Fatalf("Total = %d", c.Total())
	}
	s := c.Snapshot()
	if s.Work != 17 || s.Total() != 17 {
		t.Fatalf("snapshot %+v", s)
	}
	c.Add(3)
	diff := c.Snapshot().Sub(s)
	if diff.Work != 3 || diff.Total() != 3 {
		t.Fatalf("diff %+v", diff)
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("Reset failed")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := &Counter{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Work() != 80000 {
		t.Fatalf("Work = %d", c.Work())
	}
}
