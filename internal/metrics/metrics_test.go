package metrics

import (
	"sync"
	"testing"
)

func TestNilCounterIsSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	if c.Total() != 0 {
		t.Fatal("nil counter should read zero")
	}
	c.Reset()
	if c.Total() != 0 {
		t.Fatal("nil counter should read zero after Reset")
	}
}

func TestCounterAccumulates(t *testing.T) {
	c := &Counter{}
	c.Add(10)
	c.Add(7)
	if c.Total() != 17 {
		t.Fatalf("Total = %d", c.Total())
	}
	c.Add(3)
	if c.Total() != 20 {
		t.Fatalf("Total after a further Add = %d", c.Total())
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
	if c.Total() != 80000 {
		t.Fatalf("Total = %d", c.Total())
	}
}
