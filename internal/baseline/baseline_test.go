package baseline

import (
	"sync"
	"testing"

	"repro/internal/splay"
)

func TestLockedWrapper(t *testing.T) {
	l := NewLocked[int, int](splay.New[int, int](nil))
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := c * 100
			for i := 0; i < 1000; i++ {
				k := base + i%50
				l.Insert(k, i)
				if _, ok := l.Get(k); !ok {
					t.Errorf("Get(%d) missed own insert", k)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if l.Len() != 8*50 {
		t.Fatalf("Len = %d, want %d", l.Len(), 8*50)
	}
}
