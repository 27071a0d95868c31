package main

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/esort"
	"repro/internal/frontcache"
	cmetrics "repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/twothree"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Layer probes time calls into each module's public functions from
// inside the bench process: one goroutine unless the name ends in _np
// (procs goroutines), fixed iteration counts, median of probeReps. Their
// inputs come from a fixed seed, not from -seed, so that the counts
// among them repeat from run to run.
const (
	probeReps = 5
	probeSeed = 20180716 // SPAA'18
)

type (
	sop  = core.Op[string, string]
	sres = core.Result[string]
)

// timed runs f probeReps times and returns the median nanoseconds per
// unit, f doing units units of work per call.
func timed(units int, f func()) float64 {
	var ns []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		f()
		ns = append(ns, float64(time.Since(t0))/float64(units))
	}
	return median(ns)
}

// timedNP is timed with procs goroutines each running f(g) at once; the
// result is wall time per unit of one goroutine, so perfect scaling
// reads the same as the single-goroutine probe.
func timedNP(procs, units int, f func(g int)) float64 {
	return timed(units, func() {
		var wg sync.WaitGroup
		for g := 0; g < procs; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f(g)
			}()
		}
		wg.Wait()
	})
}

// timedPair alternates a and b rounds times per repetition, timing each
// side on its own, for operations that undo each other (install /
// invalidate, upsert / delete). It returns the median nanoseconds per
// unit of each, a and b doing units units of work per call.
func timedPair(rounds, units int, a, b func(round int)) (aNs, bNs float64) {
	var as, bs []float64
	for r := 0; r < probeReps; r++ {
		var ta, tb time.Duration
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			a(i)
			t1 := time.Now()
			b(i)
			ta += t1.Sub(t0)
			tb += time.Since(t1)
		}
		as = append(as, float64(ta)/float64(rounds*units))
		bs = append(bs, float64(tb)/float64(rounds*units))
	}
	return median(as), median(bs)
}

type probeFamily struct {
	name string
	run  func(r *rig) metrics
}

var probeFamilies = []probeFamily{
	{"wire", probeWire},
	{"frontcache", probeFrontcache},
	{"coalesce", probeCoalesce},
	{"server", probeServer},
	{"shard", probeShard},
	{"core", probeCore},
	{"twothree", probeTrees},
	{"wal", probeWAL},
}

// probeNames lists every layer-probe metric; the families must emit
// exactly these (the smoke test checks).
var probeNames = []string{
	"wire.parse_cmd_ns", "wire.render_bulk_ns", "wire.parse_allocs_per_cmd",
	"frontcache.hit_ns", "frontcache.miss_ns", "frontcache.install_ns", "frontcache.invalidate_ns", "frontcache.hit_np_ns",
	"coalesce.submit_cut_ns", "coalesce.submit_cut_np_ns",
	"server.pipe_rtt_d1_ns", "server.pipe_b32_ns_per_op",
	"shard.apply_b1_ns_per_op", "shard.apply_b32_ns_per_op", "shard.apply_b1024_ns_per_op",
	"shard.apply_b1024_np_ns_per_op", "shard.front_get_ns", "shard.range_page100_ns",
	"core.m1_get_b32_recent_ns_per_op", "core.m1_get_b32_uniform_ns_per_op",
	"core.m1_insert_b1024_ns_per_op", "core.m1_mixed_b1024_ns_per_op",
	"core.m2_get_b32_recent_ns_per_op", "core.m2_get_b32_uniform_ns_per_op",
	"core.m2_insert_b1024_ns_per_op", "core.m2_mixed_b1024_ns_per_op",
	"core.m1_work_per_op_recent", "core.m1_work_per_op_zipf", "core.m1_work_per_op_uniform",
	"twothree.batch_get_b1024_ns_per_key", "twothree.batch_upsert_b1024_ns_per_key",
	"twothree.batch_delete_b1024_ns_per_key", "esort.pesort_b1024_ns_per_key",
	"wal.append_nosync_b64_ns_per_rec", "wal.append_fsync_b64_ns", "wal.bytes_per_rec",
	"wal.replay_ns_per_rec", "wal.snapshot_ns_per_rec",
}

func ns(v float64, n int) metric { return metric{Value: v, Unit: "ns", N: int64(n) * probeReps} }

var probeValue = strings.Repeat("v", valueBytes)

// probeKeys draws n key indices from a fixed-seed generator.
func probeKeys(d dist, universe, n int, salt int64) []int {
	w := &workload{Universe: universe, Dist: d}
	var cdf []float64
	if d == distZipf {
		cdf = zipfCDF(universe, zipfS)
	}
	g := newKeyGen(w, cdf, probeSeed+salt)
	out := make([]int, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func probeWire(*rig) metrics {
	const cmds, iters = 32, 2000
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	for i := 0; i < cmds; i++ {
		if i%8 == 7 {
			w.WriteCommand("SET", keyOf(i), probeValue)
		} else {
			w.WriteCommand("GET", keyOf(i))
		}
	}
	w.Flush()
	raw := buf.Bytes()
	src := bytes.NewReader(raw)
	rd := wire.NewReader(src)
	parse := func() {
		for i := 0; i < iters; i++ {
			src.Reset(raw)
			for j := 0; j < cmds; j++ {
				if _, err := rd.ReadCommand(); err != nil {
					panic(fmt.Sprintf("wire probe: %v", err))
				}
			}
			rd.Reset()
		}
	}
	parse() // warm the arena
	out := metrics{"wire.parse_cmd_ns": ns(timed(iters*cmds, parse), iters*cmds)}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	parse()
	runtime.ReadMemStats(&m1)
	out["wire.parse_allocs_per_cmd"] = metric{
		Value: float64(m1.Mallocs-m0.Mallocs) / float64(iters*cmds), Unit: "count", N: iters * cmds}

	wr := wire.NewWriter(io.Discard)
	out["wire.render_bulk_ns"] = ns(timed(iters*cmds, func() {
		for i := 0; i < iters; i++ {
			for j := 0; j < cmds; j++ {
				wr.WriteBulk(probeValue)
			}
			wr.Flush()
		}
	}), iters*cmds)
	return out
}

func probeFrontcache(r *rig) metrics {
	const nkeys, rounds = 1024, 200
	c := frontcache.New[string, string](4096)
	seed := maphash.MakeSeed()
	type hk struct {
		h uint64
		k string
	}
	mk := func(base int) []hk {
		ks := make([]hk, nkeys)
		for i := range ks {
			k := keyOf(base + i)
			ks[i] = hk{maphash.String(seed, k), k}
		}
		return ks
	}
	install := func(ks []hk) {
		for _, e := range ks {
			c.Reserve(e.h, e.k, nil).Install(probeValue, true)
		}
	}
	invalidate := func(ks []hk) {
		for _, e := range ks {
			c.Invalidate(e.h, e.k)
		}
	}
	// A 4-slot probe window can be full; keep only the keys that fit so
	// the hit loop measures hits.
	var hot []hk
	all := mk(0)
	install(all)
	for _, e := range all {
		if _, ok := c.Get(e.h, e.k); ok {
			hot = append(hot, e)
		}
	}
	cold := mk(1 << 20)
	get := func(ks []hk) func() {
		return func() {
			for i := 0; i < rounds; i++ {
				for _, e := range ks {
					c.Get(e.h, e.k)
				}
			}
		}
	}
	out := metrics{
		"frontcache.hit_ns":  ns(timed(rounds*len(hot), get(hot)), rounds*len(hot)),
		"frontcache.miss_ns": ns(timed(rounds*len(cold), get(cold)), rounds*len(cold)),
		"frontcache.hit_np_ns": ns(timedNP(r.procs, rounds*len(hot), func(int) { get(hot)() }),
			rounds*len(hot)*r.procs),
	}
	invalidate(all)
	ins, inv := timedPair(rounds, nkeys, func(int) { install(all) }, func(int) { invalidate(all) })
	out["frontcache.install_ns"] = ns(ins, rounds*nkeys)
	out["frontcache.invalidate_ns"] = ns(inv, rounds*nkeys)
	return out
}

func probeCoalesce(r *rig) metrics {
	const iters = 20000
	// MaxBatch 1 is the size trigger at its smallest: every Submit cuts,
	// so the probe times the submit → cut → release hand-offs alone.
	co := coalesce.New[string, string](coalesce.Config{MaxBatch: 1},
		func([][]sop, [][]sres) {})
	defer co.Close()
	loop := func(int) {
		job := &coalesce.Job[string, string]{Ops: []sop{{Kind: core.OpGet, Key: "k"}}}
		for i := 0; i < iters; i++ {
			co.Submit(job)
			job.Wait()
		}
	}
	return metrics{
		"coalesce.submit_cut_ns":    ns(timed(iters, func() { loop(0) }), iters),
		"coalesce.submit_cut_np_ns": ns(timedNP(r.procs, iters, loop), iters*r.procs),
	}
}

func probeServer(r *rig) metrics {
	const nkeys, d1Iters, b32Iters, depth = 4096, 5000, 500, 32
	srv := server.New(server.Config{Shards: r.procs})
	defer srv.Close()
	nc, err := srv.Pipe()
	if err != nil {
		panic(fmt.Sprintf("server probe: %v", err))
	}
	defer nc.Close()
	rd, wr := wire.NewReader(nc), wire.NewWriter(nc)
	pipeline := func(n int, cmd func(i int)) {
		for i := 0; i < n; i++ {
			cmd(i)
		}
		if err := wr.Flush(); err != nil {
			panic(fmt.Sprintf("server probe: %v", err))
		}
		for i := 0; i < n; i++ {
			if rep, err := rd.ReadReply(); err != nil || rep.IsError() {
				panic(fmt.Sprintf("server probe: %v %v", rep, err))
			}
		}
		rd.Reset()
	}
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = keyOf(i)
	}
	for base := 0; base < nkeys; base += 128 {
		pipeline(128, func(i int) { wr.WriteCommand("SET", keys[base+i], probeValue) })
	}
	draw := probeKeys(distUniform, nkeys, 1<<16, 1)
	next := 0
	get := func(int) {
		wr.WriteCommand("GET", keys[draw[next%len(draw)]])
		next++
	}
	for i := 0; i < 2*nkeys/128; i++ {
		pipeline(128, get) // net.Pipe has no buffer: a pipeline must fit the codec's
	}
	return metrics{
		"server.pipe_rtt_d1_ns": ns(timed(d1Iters, func() {
			for i := 0; i < d1Iters; i++ {
				pipeline(1, get)
			}
		}), d1Iters),
		"server.pipe_b32_ns_per_op": ns(timed(b32Iters*depth, func() {
			for i := 0; i < b32Iters; i++ {
				pipeline(depth, get)
			}
		}), b32Iters*depth),
	}
}

// applier is what the shard map and both engines share.
type applier interface {
	ApplyInto(ops []sop, dst []sres) []sres
}

// preloadApplier inserts keys [0, n) in batches of 1024.
func preloadApplier(a applier, n int) {
	ops := make([]sop, 0, 1024)
	var dst []sres
	for i := 0; i < n; i++ {
		ops = append(ops, sop{Kind: core.OpInsert, Key: keyOf(i), Val: probeValue})
		if len(ops) == cap(ops) || i == n-1 {
			dst = a.ApplyInto(ops, dst)
			ops = ops[:0]
		}
	}
}

// opsFor turns drawn indices into operations, every setEvery-th an
// insert (0 = all gets).
func opsFor(idx []int, setEvery int) []sop {
	ops := make([]sop, len(idx))
	for i, k := range idx {
		ops[i] = sop{Kind: core.OpGet, Key: keyOf(k)}
		if setEvery > 0 && i%setEvery == setEvery-1 {
			ops[i] = sop{Kind: core.OpInsert, Key: keyOf(k), Val: probeValue}
		}
	}
	return ops
}

// applyAll pushes ops through a in batches of b.
func applyAll(a applier, ops []sop, b int, dst []sres) []sres {
	for lo := 0; lo+b <= len(ops); lo += b {
		dst = a.ApplyInto(ops[lo:lo+b], dst)
	}
	return dst
}

func probeShard(r *rig) metrics {
	const universe, nops = 1 << 16, 1 << 13
	m := shard.New[string, string](shard.Config{Shards: r.procs, FrontCache: 4096})
	defer m.Close()
	preloadApplier(m, universe)
	ops := opsFor(probeKeys(distZipf, universe, nops, 2), 10)
	var dst []sres
	dst = applyAll(m, ops, 1024, dst) // warm: hot keys promoted, front populated
	out := metrics{}
	for _, c := range []struct {
		name string
		b, n int
	}{{"b1", 1, nops / 8}, {"b32", 32, nops}, {"b1024", 1024, nops}} {
		out["shard.apply_"+c.name+"_ns_per_op"] = ns(timed(c.n, func() {
			dst = applyAll(m, ops[:c.n], c.b, dst)
		}), c.n)
	}
	dsts := make([][]sres, r.procs)
	out["shard.apply_b1024_np_ns_per_op"] = ns(timedNP(r.procs, nops, func(g int) {
		dsts[g] = applyAll(m, ops, 1024, dsts[g])
	}), nops*r.procs)

	hot := make([]string, 256)
	for i := range hot {
		hot[i] = keyOf((i * rankScramble) & (universe - 1)) // the 256 hottest ranks
		m.Get(hot[i])
		m.Get(hot[i]) // the second Get is answered by the front
	}
	const getRounds = 400
	out["shard.front_get_ns"] = ns(timed(getRounds*len(hot), func() {
		for i := 0; i < getRounds; i++ {
			for _, k := range hot {
				m.Get(k)
			}
		}
	}), getRounds*len(hot))

	los := probeKeys(distUniform, universe-scanSpan, 512, 3)
	var page []shard.Entry[string, string]
	out["shard.range_page100_ns"] = ns(timed(len(los), func() {
		for _, lo := range los {
			page, _ = m.RangePage(keyOf(lo), false, keyOf(lo+scanSpan), scanPage, page[:0])
		}
	}), len(los))
	return out
}

func probeCore(r *rig) metrics {
	const universe, nops = 1 << 16, 1 << 12
	recent := opsFor(probeKeys(distRecency, universe, nops, 4), 0)
	uniform := opsFor(probeKeys(distUniform, universe, nops, 5), 0)
	zipf := opsFor(probeKeys(distZipf, universe, nops, 6), 0)
	mixed := opsFor(probeKeys(distZipf, universe, nops, 7), 2)
	out := metrics{}
	engines := []struct {
		name string
		mk   func(cfg core.Config) (applier, func())
	}{
		{"m1", func(cfg core.Config) (applier, func()) { m := core.NewM1[string, string](cfg); return m, m.Close }},
		{"m2", func(cfg core.Config) (applier, func()) { m := core.NewM2[string, string](cfg); return m, m.Close }},
	}
	for _, e := range engines {
		a, closeFn := e.mk(core.Config{})
		preloadApplier(a, universe)
		var dst []sres
		put := func(name string, ops []sop, b int) {
			dst = applyAll(a, ops, b, dst) // warm on the same sequence
			out["core."+e.name+"_"+name+"_ns_per_op"] = ns(timed(len(ops), func() {
				dst = applyAll(a, ops, b, dst)
			}), len(ops))
		}
		put("get_b32_recent", recent, 32)
		put("get_b32_uniform", uniform, 32)
		put("mixed_b1024", mixed, 1024)
		// Inserts of keys the map has never held, so every one is a
		// structural insert: the map grows by fresh keys per repetition.
		const fresh = 4 * 1024
		freshOps := make([]sop, probeReps*fresh)
		for i := range freshOps {
			freshOps[i] = sop{Kind: core.OpInsert, Key: keyOf(universe + i), Val: probeValue}
		}
		rep := 0
		out["core."+e.name+"_insert_b1024_ns_per_op"] = ns(timed(fresh, func() {
			dst = applyAll(a, freshOps[rep*fresh:(rep+1)*fresh], 1024, dst)
			rep++
		}), fresh)
		closeFn()
	}
	// The paper's bound as a count: structural work (node visits +
	// comparisons + moves) per GET, one submitter, batches of 32. Recent
	// keys must cost less than uniform ones.
	for _, c := range []struct {
		name string
		ops  []sop
	}{{"recent", recent}, {"zipf", zipf}, {"uniform", uniform}} {
		cnt := &cmetrics.Counter{}
		m := core.NewM1[string, string](core.Config{Counter: cnt})
		preloadApplier(m, universe)
		dst := applyAll(m, c.ops, 32, nil) // warm
		before := cnt.Total()
		applyAll(m, c.ops, 32, dst)
		out["core.m1_work_per_op_"+c.name] = metric{
			Value: float64(cnt.Total()-before) / float64(len(c.ops)), Unit: "count", N: int64(len(c.ops))}
		m.Close()
	}
	return out
}

func probeTrees(*rig) metrics {
	const n, b, batches = 1 << 20, 1024, 32
	tr := twothree.New[int, int](nil)
	items := make([]twothree.Item[int, int], n)
	for i := range items {
		items[i] = twothree.Item[int, int]{Key: i * 2, Payload: i} // even keys are present
	}
	tr.BatchUpsert(items)
	rng := rand.New(rand.NewSource(probeSeed))
	// Each batch is b sorted, distinct positions; gets use the even key
	// there, upserts and deletes the absent odd key next to it.
	gets := make([][]int, batches)
	fresh := make([][]twothree.Item[int, int], batches)
	freshKeys := make([][]int, batches)
	for j := range gets {
		seen := map[int]bool{}
		for len(seen) < b {
			seen[rng.Intn(n)] = true
		}
		pos := make([]int, 0, b)
		for p := range seen {
			pos = append(pos, p)
		}
		sort.Ints(pos)
		for _, p := range pos {
			gets[j] = append(gets[j], p*2)
			fresh[j] = append(fresh[j], twothree.Item[int, int]{Key: p*2 + 1, Payload: p})
			freshKeys[j] = append(freshKeys[j], p*2+1)
		}
	}
	leaves := make([]*twothree.Node[int, int], b)
	out := metrics{"twothree.batch_get_b1024_ns_per_key": ns(timed(batches*b, func() {
		for _, keys := range gets {
			tr.BatchGetInto(keys, leaves)
		}
	}), batches*b)}
	ups, del := timedPair(batches, b,
		func(j int) { tr.BatchUpsert(fresh[j]) },
		func(j int) { tr.BatchDeleteInto(freshKeys[j], leaves) })
	out["twothree.batch_upsert_b1024_ns_per_key"] = ns(ups, batches*b)
	out["twothree.batch_delete_b1024_ns_per_key"] = ns(del, batches*b)

	// Entropy sort over what a cut batch looks like: 1024 zipf-drawn
	// keys, so duplicates are common.
	sortKeys := make([][]string, batches)
	for j := range sortKeys {
		for _, k := range probeKeys(distZipf, 1<<16, b, int64(100+j)) {
			sortKeys[j] = append(sortKeys[j], keyOf(k))
		}
	}
	var perm, scratch []int
	out["esort.pesort_b1024_ns_per_key"] = ns(timed(batches*b, func() {
		for _, keys := range sortKeys {
			perm, scratch = esort.PESortInto(keys, esort.MedianOfMedians, perm, scratch)
		}
	}), batches*b)
	return out
}

func probeWAL(r *rig) metrics {
	const recsPerBatch, batches, fsyncs, snapRecs = 64, 400, 20, 1 << 16
	recs := make([]wal.Record, recsPerBatch)
	for i := range recs {
		recs[i] = wal.Record{Key: keyOf(i), Val: probeValue}
	}
	quiet := func(string, ...any) {}
	open := func(dir string, p wal.Policy) (*wal.Log, *wal.Recovery) {
		l, rec, err := wal.Open(wal.Options{Dir: dir, Policy: p, Logf: quiet})
		if err != nil {
			panic(fmt.Sprintf("wal probe: %v", err))
		}
		return l, rec
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("wal probe: %v", err))
		}
	}
	dir := filepath.Join(r.workDir, "probe-wal")
	defer os.RemoveAll(dir)
	out := metrics{}

	l, _ := open(filepath.Join(dir, "nosync"), wal.SyncNever)
	out["wal.append_nosync_b64_ns_per_rec"] = ns(timed(batches*recsPerBatch, func() {
		for i := 0; i < batches; i++ {
			must(l.AppendBatch(recs))
		}
	}), batches*recsPerBatch)
	st := l.Stats()
	out["wal.bytes_per_rec"] = metric{Value: float64(st.Bytes) / float64(st.Records), Unit: "B", N: st.Records}
	must(l.Close())

	// Replay of the log just written, reopened each time.
	logged := int(st.Records)
	out["wal.replay_ns_per_rec"] = ns(timed(logged, func() {
		l, rec := open(filepath.Join(dir, "nosync"), wal.SyncNever)
		n := 0
		must(rec.Replay(func(rs []wal.Record) error { n += len(rs); return nil }))
		if n != logged {
			panic(fmt.Sprintf("wal probe: replayed %d of %d records", n, logged))
		}
		must(l.Close())
	}), logged)

	l, _ = open(filepath.Join(dir, "snap"), wal.SyncNever)
	out["wal.snapshot_ns_per_rec"] = ns(timed(snapRecs, func() {
		must(l.Snapshot(func(emit func(wal.Record) error) error {
			for i := 0; i < snapRecs; i++ {
				if err := emit(recs[i%recsPerBatch]); err != nil {
					return err
				}
			}
			return nil
		}))
	}), snapRecs)
	must(l.Close())

	l, _ = open(filepath.Join(dir, "fsync"), wal.SyncAlways)
	out["wal.append_fsync_b64_ns"] = ns(timed(fsyncs, func() {
		for i := 0; i < fsyncs; i++ {
			must(l.AppendBatch(recs))
		}
	}), fsyncs)
	must(l.Close())
	return out
}

// runProbes runs the named families (all of them for nil).
func runProbes(r *rig, only map[string]bool) metrics {
	out := metrics{}
	for _, f := range probeFamilies {
		if only != nil && !only[f.name] {
			continue
		}
		t0 := time.Now()
		for k, v := range f.run(r) {
			out[k] = v
		}
		fmt.Fprintf(os.Stderr, "bench: probes %-10s %5.1f s\n", f.name, time.Since(t0).Seconds())
	}
	return out
}
