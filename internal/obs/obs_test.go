package obs

import (
	"encoding/json"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestBucketBounds pins the bucket geometry: bucket 0 is v <= 0, bucket
// i covers [2^(i-1), 2^i), and BucketLo/BucketHi agree with bucketOf.
func TestBucketBounds(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	for i := 1; i < NumBuckets; i++ {
		lo, hi := int64(BucketLo(i)), int64(BucketHi(i))
		if bucketOf(lo) != i {
			t.Errorf("bucket %d: lo %d maps to %d", i, lo, bucketOf(lo))
		}
		if i < 63 && bucketOf(hi-1) != i {
			t.Errorf("bucket %d: hi-1 %d maps to %d", i, hi-1, bucketOf(hi-1))
		}
	}
}

// TestNilReceivers checks that every type in the package is a no-op on
// nil — the contract that lets instrumented code skip its own branches.
func TestNilReceivers(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.RecordN(5, 3)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil histogram snapshot count = %d", s.Count)
	}
	var st *StageSet
	st.Record(StageParse, 100)
	st.RecordSince(StageApply, Now())
	if s := st.Snapshot(); s[StageParse].Count != 0 {
		t.Error("nil stage set recorded")
	}
	var e *EngineObs
	e.RecordLookup(SrcFirstSlab, 2, 10)
	e.RecordRange(1, 2)
	if s := e.Snapshot(); s.Depth.Count != 0 {
		t.Error("nil engine obs recorded")
	}
	var m *MapObs
	if m.Engine(0) != nil || m.Stages() != nil || m.Shards() != 0 {
		t.Error("nil MapObs handed out non-nil sinks")
	}
	if s := m.DepthSnapshot(); s.Depth.Count != 0 {
		t.Error("nil MapObs snapshot non-empty")
	}
}

// TestConcurrentRecordExact races many writers against a mutex-guarded
// oracle and requires the quiescent snapshot to match it exactly — the
// lock-free histogram may not drop or double-count under contention.
// Run under -race this also proves the recording path is data-race
// free.
func TestConcurrentRecordExact(t *testing.T) {
	const (
		writers = 8
		perG    = 5000
	)
	var h Histogram
	var mu sync.Mutex
	oracle := struct {
		count, sum, max int64
		buckets         [NumBuckets]int64
	}{}
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < perG; i++ {
				v := rng.Int63n(1 << 20)
				n := 1 + rng.Int63n(4)
				h.RecordN(v, n)
				mu.Lock()
				oracle.count += n
				oracle.sum += v * n
				if v > oracle.max {
					oracle.max = v
				}
				oracle.buckets[bucketOf(v)] += n
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != oracle.count || s.Sum != oracle.sum || s.Max != oracle.max {
		t.Fatalf("snapshot (count=%d sum=%d max=%d) != oracle (count=%d sum=%d max=%d)",
			s.Count, s.Sum, s.Max, oracle.count, oracle.sum, oracle.max)
	}
	if s.Buckets != oracle.buckets {
		t.Fatal("bucket counts diverged from oracle")
	}
}

// TestMergeAssociative checks the snapshot algebra: Merge is associative
// and commutative, and Sub inverts Merge (bucket-wise).
func TestMergeAssociative(t *testing.T) {
	mk := func(seed int64) HistSnapshot {
		var h Histogram
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Record(rng.Int63n(1 << 16))
		}
		return h.Snapshot()
	}
	a, b, c := mk(1), mk(2), mk(3)
	left, right := a.Merge(b).Merge(c), a.Merge(b.Merge(c))
	if left != right {
		t.Fatal("Merge not associative")
	}
	if a.Merge(b) != b.Merge(a) {
		t.Fatal("Merge not commutative")
	}
	diff := a.Merge(b).Sub(a)
	if diff.Count != b.Count || diff.Sum != b.Sum || diff.Buckets != b.Buckets {
		t.Fatal("Sub does not invert Merge")
	}
}

// TestQuantileKnownDistributions checks Quantile on distributions whose
// percentiles are known, within the log-bucket guarantee: the reported
// quantile lands inside the true value's power-of-two bucket.
func TestQuantileKnownDistributions(t *testing.T) {
	// Constant 100: every quantile interpolates inside 100's bucket
	// [64, 128), clamped to the observed max — so within [64, 100], and
	// exactly 100 at the top.
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Record(100)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := s.Quantile(q); v < 64 || v > 100 {
			t.Errorf("constant dist: Quantile(%.2f) = %.1f, want in [64, 100]", q, v)
		}
	}
	if v := s.Quantile(1); v != 100 {
		t.Errorf("constant dist: Quantile(1) = %.1f, want 100 (max clamp)", v)
	}
	// Uniform over [0, 1<<14): the q-quantile is q*2^14, and the bucket
	// guarantee allows a factor-of-two window around it.
	var u Histogram
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		u.Record(rng.Int63n(1 << 14))
	}
	us := u.Snapshot()
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		want := q * float64(int64(1)<<14)
		got := us.Quantile(q)
		if got < want/2 || got > want*2 {
			t.Errorf("uniform dist: Quantile(%.2f) = %.0f, want within [%.0f, %.0f]",
				q, got, want/2, want*2)
		}
	}
	// Two-point distribution 90/10: p50 in the low bucket, p99 in the
	// high one.
	var b Histogram
	b.RecordN(4, 90)
	b.RecordN(4096, 10)
	bs := b.Snapshot()
	if v := bs.Quantile(0.5); v < 4 || v >= 8 {
		t.Errorf("two-point: p50 = %.1f, want in [4, 8)", v)
	}
	if v := bs.Quantile(0.99); v < 2048 || v > 4096 {
		t.Errorf("two-point: p99 = %.1f, want in [2048, 4096]", v)
	}
	// Empty: all quantiles zero.
	var e HistSnapshot
	if e.Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile != 0")
	}
}

// TestTrimmedBucketsRoundTrip checks the /statsz compact form:
// FromBuckets(TrimmedBuckets) reproduces the snapshot.
func TestTrimmedBucketsRoundTrip(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		h.Record(rng.Int63n(1 << 10))
	}
	s := h.Snapshot()
	got := FromBuckets(s.Count, s.Sum, s.Max, s.TrimmedBuckets())
	if got != s {
		t.Fatal("FromBuckets(TrimmedBuckets) != original snapshot")
	}
	var empty HistSnapshot
	if empty.TrimmedBuckets() != nil {
		t.Error("empty snapshot trims to non-nil buckets")
	}
}

// TestEngineObsAttribution checks the per-source split: every recorded
// call lands in exactly one source and the merged depth count is the
// total.
func TestEngineObsAttribution(t *testing.T) {
	var e EngineObs
	e.RecordLookup(SrcFirstSlab, 0, 10)
	e.RecordLookup(SrcFilter, 2, 5)
	e.RecordLookup(SrcFinalSlab, 3, 3)
	e.RecordLookup(SrcTail, 5, 2)
	s := e.Snapshot()
	if s.Depth.Count != 20 {
		t.Errorf("depth count = %d, want 20", s.Depth.Count)
	}
	want := [NumDepthSources]int64{10, 5, 3, 2}
	if s.Sources != want {
		t.Errorf("sources = %v, want %v", s.Sources, want)
	}
	e.RecordRange(4, 100)
	s = e.Snapshot()
	if s.RangeBatches != 1 || s.RangePairsLive != 100 {
		t.Errorf("range tallies = %+v", s)
	}
}

// TestMapObsMerge checks that per-shard recordings fold into one map
// snapshot.
func TestMapObsMerge(t *testing.T) {
	m := NewMapObs(4)
	for i := 0; i < 4; i++ {
		m.Engine(i).RecordLookup(SrcFirstSlab, i, 10)
	}
	s := m.DepthSnapshot()
	if s.Depth.Count != 40 || s.Sources[SrcFirstSlab] != 40 {
		t.Errorf("merged count = %d, sources = %v", s.Depth.Count, s.Sources)
	}
	if got := len(m.ShardDepths()); got != 4 {
		t.Errorf("ShardDepths len = %d", got)
	}
	if m.Engine(7) != nil {
		t.Error("out-of-range Engine not nil")
	}
}

// TestWritePromShape sanity-checks the exposition format: cumulative
// buckets ending at +Inf with the total count, sum and count series
// present.
func TestWritePromShape(t *testing.T) {
	var h Histogram
	h.RecordN(3, 5)
	h.RecordN(100, 2)
	var b strings.Builder
	h.Snapshot().WriteProm(&b, "x", 1)
	out := b.String()
	for _, want := range []string{
		"# TYPE x histogram\n",
		`x_bucket{le="3"} 5` + "\n",
		`x_bucket{le="+Inf"} 7` + "\n",
		"x_sum 215\n",
		"x_count 7\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q:\n%s", want, out)
		}
	}
	var sb strings.Builder
	h.Snapshot().WriteProm(&sb, "y", 1e-9)
	if !strings.Contains(sb.String(), `y_bucket{le="4e-09"} 5`) {
		t.Errorf("scaled prom output malformed:\n%s", sb.String())
	}
}

// TestRegistryOneLinePerValue is the registry's contract: a value
// registered once, in one line, appears on all three surfaces under
// the names Names derives from its path, and each kind renders as its
// surface expects.
func TestRegistryOneLinePerValue(t *testing.T) {
	r := NewRegistry("t")
	var n atomic.Int64
	r.Gauge("keys", func() int64 { return 7 })
	r.Info("cfg.mode", func() string { return "fast" })
	var h Histogram
	h.Record(1500)
	r.HistNS("lat.op_ns", h.Snapshot)
	r.Counter("cfg.extra_hits", n.Load) // the one line a new counter costs
	n.Add(3)

	text := r.Text()
	wantText := "keys 7\nSECTION cfg\ncfg_mode fast\n" +
		"SECTION lat\nSECTION histo lat_op_ns\nlat_op_ns_count 1\n"
	if !strings.HasPrefix(text, wantText) || !strings.HasSuffix(text, "SECTION cfg\ncfg_extra_hits 3\n") {
		t.Errorf("Text:\n%s", text)
	}

	raw, err := json.Marshal(r.Statsz())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Keys int64
		Cfg  struct {
			Mode      string
			ExtraHits int64 `json:"extra_hits"`
		}
		Lat struct {
			OpNS struct{ Count, Max int64 } `json:"op_ns"`
		}
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Keys != 7 || doc.Cfg.Mode != "fast" || doc.Cfg.ExtraHits != 3 ||
		doc.Lat.OpNS.Count != 1 || doc.Lat.OpNS.Max != 1500 {
		t.Errorf("Statsz = %s", raw)
	}

	var prom strings.Builder
	r.WriteProm(&prom)
	for _, want := range []string{
		"# TYPE t_keys gauge\nt_keys 7\n",
		"# TYPE t_cfg_mode gauge\nt_cfg_mode{value=\"fast\"} 1\n",
		"# TYPE t_lat_op_seconds histogram\n",
		"t_lat_op_seconds_count 1\n",
		"# TYPE t_cfg_extra_hits_total counter\nt_cfg_extra_hits_total 3\n",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("WriteProm missing %q:\n%s", want, prom.String())
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("registering a path twice did not panic")
		}
	}()
	r.Gauge("keys", n.Load)
}

// TestStageSet checks stage recording and naming.
func TestStageSet(t *testing.T) {
	var s StageSet
	s.Record(StageParse, 1000)
	s.RecordSince(StageReply, Now())
	snap := s.Snapshot()
	if snap[StageParse].Count != 1 || snap[StageReply].Count != 1 {
		t.Errorf("stage counts = %+v", snap)
	}
	wantNames := []string{"parse", "queue_wait", "window_wait", "fanout", "apply", "reply"}
	for i, w := range wantNames {
		if got := Stage(i).String(); got != w {
			t.Errorf("Stage(%d) = %q, want %q", i, got, w)
		}
	}
}
