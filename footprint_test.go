package pws

import (
	"fmt"
	"runtime"
	"testing"
)

// TestBytesPerItem bounds the live heap one resident item costs: the
// server's shape (string keys, 64-byte string values, sharded M1) is
// loaded with 2^17 items, and HeapAlloc after two collections (the second
// empties the node pools' victim caches) is divided by the item count.
// 80 of the bytes are the item's own key and value; the rest is the two
// leaves, their share of routing nodes, and allocator rounding. The
// engine's accounted itemOverhead (96) is a budget charge, not this
// number. Measured 240 B/item; 431 before leaves and routing nodes were
// split into two types. Skipped under -race (instrumented heap).
func TestBytesPerItem(t *testing.T) {
	if raceEnabled {
		t.Skip("heap sizes inflated under -race")
	}
	const n, batch = 1 << 17, 1024
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	m := NewSharded[string, string](ShardedOptions{Shards: 2})
	defer m.Close()
	before := heap()
	ops := make([]Op[string, string], batch)
	var res []Result[string]
	for base := 0; base < n; base += batch {
		for i := range ops {
			k := (base + i) * 7919 % n // 7919 is odd: a permutation of [0, n)
			ops[i] = Op[string, string]{Kind: OpInsert, Key: fmt.Sprintf("k%08d", k), Val: string(make([]byte, 64))}
		}
		res = m.ApplyInto(ops, res[:0])
	}
	clear(ops)
	clear(res)
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d after loading %d distinct keys", got, n)
	}
	perItem := float64(heap()-before) / n
	t.Logf("%.1f live heap bytes per resident item", perItem)
	const ceiling = 270.0
	if perItem > ceiling {
		t.Errorf("%.1f live heap bytes per resident item, ceiling %.0f", perItem, ceiling)
	}
}
