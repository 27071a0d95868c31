// Package pws implements parallel working-set search structures: ordered
// maps whose total work adapts to the temporal locality of the access
// sequence, following "Parallel Working-Set Search Structures" (Agrawal,
// Gilbert, Lim — SPAA 2018).
//
// # Background
//
// A working-set map guarantees that accessing an item with recency r —
// i.e. r distinct items were accessed since the last access to it — costs
// O(1 + log r) work rather than O(log n). Over any operation sequence L
// the total work is bounded by the working-set bound
//
//	W_L = Σ (log2(r_i) + 1),
//
// which also implies static optimality: the map is never asymptotically
// worse than the best static search tree for the observed access
// frequencies, and far better when the access pattern has temporal
// locality (caches, sessions, hot keys, bursts).
//
// This package provides the paper's two parallel designs plus the
// sequential structures they build on:
//
//   - NewM1: the batched parallel working-set map (Theorem 3). Operations
//     from any number of goroutines are implicitly batched, entropy-sorted
//     to combine duplicates, and run through the segment structure as
//     group operations.
//   - NewM2: the pipelined parallel working-set map (Theorem 4). Like M1,
//     but the segment structure is pipelined so a cheap (recent) operation
//     is not blocked behind an expensive one; operations on recent items
//     complete in O((log p)² + log r) span independent of the map size.
//     It is exactly the paper's structure — Get, Insert, Delete and Apply;
//     no range reads, TTLs or byte budget.
//   - NewSharded: a hash-sharded front-end over S per-shard M1
//     instances. Operations route by key hash, so cross-shard operations
//     never serialize on one segment structure while each shard keeps the
//     working-set bound for the keys it owns — the scaling layer for
//     multi-core throughput.
//   - NewM0: the amortized sequential working-set map of Section 5.
//   - NewIacono: Iacono's classic working-set structure.
//   - NewSplay: a splay tree (amortized self-adjusting baseline).
//   - NewBatchedTree(p, cnt): a batched, non-adaptive parallel 2-3 tree
//     map (the paper's comparison baseline), with p buffer slots and an
//     optional work counter.
//
// # Choosing a map
//
// Use NewSharded for a concurrent map on more than one core, NewM1 for a
// single engine; the sequential constructors for single-goroutine use or
// as baselines. NewM2 is the Theorem 4 structure kept as a reproduction
// artifact: it pays constants to cut span — 3–6x behind M1 on every
// core.m2_* probe of the standing benchmark (bench/) — and exists for
// experiments E6 and E7, which measure the bounds it is built for. All
// parallel maps are drop-in concurrent ordered maps:
//
//	m := pws.NewM1[string, int](pws.Options{})
//	defer m.Close()
//	m.Insert("k", 1)
//	v, ok := m.Get("k")
//	m.Delete("k")
//
// # Range reads
//
// Ordered range reads are first-class batched operations, not
// stop-the-world snapshots: a range rides the engines' cut batches like
// any Get/Insert/Delete (OpRange in the batch API), linearizes at a
// batch boundary, and needs no quiescence — writers keep committing
// while ranges are served. M1 exposes Range (one bounded page);
// Sharded exposes RangePage (cursor pagination: one bounded range op
// broadcast to every shard and k-way merged) and a paging Range
// visitor. Items remains a quiescent whole-map snapshot for draining
// and tests.
//
// # Hot-key front cache
//
// A Sharded map can put a lock-free, fixed-size read cache ahead of the
// batch pipeline (ShardedOptions.FrontCache, internal/frontcache):
// repeat Gets of hot keys are answered wait-free from a version-checked
// hash front — two atomic loads, zero allocations, ~10x under the
// batched path — while every write drops its key from the front at the
// key's engine serialization point, before any result of its batch is
// released (a reader that has seen a write never then sees an older
// cached value, and a write acked in batch N is never shadowed by a
// cached read in batch N+1).
// The cache is filled at the same serialization point: the engine read
// that finds a key resident stages its value in the key's front slot,
// where a later write's drop kills it, and the value becomes readable
// once the read's batch has committed (on a durable server, once its
// WAL sync has returned). Fills and drops of a key are thus ordered like
// the ops that cause them: a stale value is never published over a
// newer write, and no value is served before it is durable. Misses and
// uniform workloads pay one failed probe and proceed down the normal
// engine path, which fills what it finds.
//
// # Bounded memory and TTLs
//
// The working-set hierarchy doubles as a cache eviction policy. Give a
// map a byte budget (Options.MaxBytes on an M1, or
// ShardedOptions.MaxBytes as a global budget split across shards) and
// when resident bytes exceed it, the coldest items — the back of the
// deepest segment, where the structure has already pushed the
// least-recently-used keys — are evicted at batch boundaries. No
// separate LRU list is maintained; access-driven promotion is the
// policy. Per-key TTLs arm through OpExpire (an absolute unix-nanos
// deadline; 0 clears): an expired key is a miss the moment its
// deadline passes — in Get, ranges, Len, and the front cache — and is
// physically reclaimed by a lazy batch-boundary sweep, never on the
// per-operation hot path. Mem returns the MemStats health snapshot
// (resident bytes, budget, eviction/expiry counts, armed TTLs).
//
// # Network service
//
// The maps are also servable over a socket: cmd/wsd fronts a Sharded
// map with a RESP-like text protocol (internal/wire) and turns network
// pipelining into the paper's batching — each connection's pipelined
// requests are drained into one job for a group-commit scheduler
// (internal/coalesce), the server's single path to the map, which cuts
// whatever all connections have queued into one combined batch Apply, so
// duplicate combining and working-set adaptivity survive the network
// hop within a pipeline and across clients (internal/server). wsd's
// -coalesce-window bounds how long a cut may wait for more traffic:
// 0 (the default) adds no latency, and a small window restores the
// paper's batch economics to unpipelined fleets (each client one
// request at a time). SCAN is a cursor-paged range read
// served by the batched range path, so scans never stall writers. The
// front cache is on by default server-side (-front-cache; front_hits
// and front_misses in STATS, front.* in /statsz, wsd_front_* in
// /metrics; hit ratio via wsload -statsz).
// cmd/wsload is the matching load generator (closed-loop pipelines,
// mixed scan workloads with -scan-frac, server-side stage percentiles
// with -statsz); see README.md.
//
// See EXPERIMENTS.md for the measured reproduction of every bound in the
// paper, and DESIGN.md for the system inventory.
package pws
