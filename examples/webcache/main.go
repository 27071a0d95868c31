// Webcache simulates the workload that motivates working-set structures:
// a session cache in front of an ever-growing key space, where the set of
// hot sessions is small and drifts over time (users log in, stay active
// for a while, then leave).
//
// A non-adaptive balanced tree pays Θ(log n) per lookup, growing as the
// cache fills up. The working-set maps pay O(1 + log r) where r is the
// recency of the session — flat in n. This example sweeps the cache size
// with a fixed drifting hot set and prints structural work per lookup for
// each structure, reproducing the shape of the paper's comparison: the
// working-set curve is flat, the tree curve climbs, and they cross.
package main

import (
	"fmt"
	"math/rand"
	"sync"

	pws "repro"
	"repro/internal/workload"
)

const (
	hotSet   = 16    // concurrently active sessions
	period   = 1_000 // accesses before the active set drifts
	accesses = 160_000
	clients  = 8
)

func run(mk func(*pws.WorkCounter) pws.ConcurrentMap[int, int], sessions int, keys []int) float64 {
	cnt := &pws.WorkCounter{}
	m := mk(cnt)
	defer m.Close()
	var pre sync.WaitGroup
	for c := 0; c < clients; c++ {
		pre.Add(1)
		go func(c int) {
			defer pre.Done()
			for i := c; i < sessions; i += clients {
				m.Insert(i, i)
			}
		}(c)
	}
	pre.Wait()
	cnt.Reset()
	var wg sync.WaitGroup
	per := len(keys) / clients
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(part []int) {
			defer wg.Done()
			for _, k := range part {
				if _, ok := m.Get(k); !ok {
					panic("session lost")
				}
			}
		}(keys[c*per : (c+1)*per])
	}
	wg.Wait()
	return float64(cnt.Total()) / float64(per*clients)
}

func main() {
	fmt.Printf("session cache, hot set of %d sessions drifting every %d accesses\n\n", hotSet, period)
	fmt.Printf("%12s %16s %16s %16s\n", "sessions n", "M1 work/op", "M2 work/op", "tree work/op")
	for _, sessions := range []int{10_000, 100_000, 1_000_000} {
		rng := rand.New(rand.NewSource(42))
		keys := workload.MovingHotspotKeys(rng, accesses, sessions, hotSet, period)
		m1 := run(func(c *pws.WorkCounter) pws.ConcurrentMap[int, int] {
			return pws.NewM1[int, int](pws.Options{Counter: c})
		}, sessions, keys)
		m2 := run(func(c *pws.WorkCounter) pws.ConcurrentMap[int, int] {
			return pws.NewM2[int, int](pws.Options{Counter: c})
		}, sessions, keys)
		bt := run(func(c *pws.WorkCounter) pws.ConcurrentMap[int, int] {
			return pws.NewBatchedTree[int, int](0, c)
		}, sessions, keys)
		fmt.Printf("%12d %16.1f %16.1f %16.1f\n", sessions, m1, m2, bt)
	}
	fmt.Println("\nExpected shape: the working-set columns stay (nearly) flat as the")
	fmt.Println("cache grows 100x, while the tree column climbs with log n — the")
	fmt.Println("working-set property in action (Theorems 3/4 vs a batched tree).")
}
