// Sharded demonstrates the hash-sharded front-end: NewSharded routes each
// operation by key hash to one of S independent working-set maps, so
// cross-shard operations never serialize on one segment structure — the
// per-shard batches, duplicate combining, and working-set adaptivity all
// still apply to the keys each shard owns.
//
// The demo bulk-loads through the sharded Apply path, hammers the map from
// many goroutines, and finishes with a globally ordered range scan (a
// k-way merge of the per-shard orders).
package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	pws "repro"
	"repro/internal/workload"
)

func main() {
	m := pws.NewSharded[int, string](pws.ShardedOptions{Shards: 4})
	defer m.Close()
	fmt.Printf("sharded map: %d shards on GOMAXPROCS=%d\n", m.Shards(), runtime.GOMAXPROCS(0))

	// Phase 1: sharded bulk-load. Apply splits the batch by shard and runs
	// the per-shard sub-batches concurrently.
	const n = 50_000
	load := make([]pws.Op[int, string], n)
	for i := range load {
		load[i] = pws.Op[int, string]{Kind: pws.OpInsert, Key: i, Val: fmt.Sprintf("item-%d", i)}
	}
	start := time.Now()
	m.Apply(load)
	fmt.Printf("bulk-loaded %d items across %d shards in %v (%d cut batches)\n",
		m.Len(), m.Shards(), time.Since(start).Round(time.Millisecond), m.Batches())

	// Phase 2: concurrent clients with a skewed (hot-key) access mix. Keys
	// hash across shards, so the hot set spreads over all engines instead
	// of funnelling into one implicit batch.
	const clients = 8
	var wg sync.WaitGroup
	var ops int
	start = time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			keys := workload.ZipfKeys(rng, 20_000, n, 0.99)
			for i, k := range keys {
				switch i % 10 {
				case 0:
					m.Insert(k, "updated")
				case 9:
					m.Delete(k)
				default:
					m.Get(k)
				}
			}
		}(c)
	}
	ops = clients * 20_000
	wg.Wait()
	el := time.Since(start)
	fmt.Printf("%d clients, %d ops in %v (%.2f Mop/s)\n",
		clients, ops, el.Round(time.Millisecond), float64(ops)/el.Seconds()/1e6)

	// Phase 3: globally ordered queries over the sharded contents (phase 2
	// deleted some of the hot keys, so the range may have holes).
	first, count := -1, 0
	m.Range(1000, 1010, func(k int, v string) bool {
		if first < 0 {
			first = k
		}
		count++
		return true
	})
	fmt.Printf("range scan [1000,1010): %d of 10 keys survive the deletes, first %d (merged across %d shards)\n",
		count, first, m.Shards())
}
