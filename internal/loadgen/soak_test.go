package loadgen

// Bounded-memory soak smoke: an in-process wsd with a byte budget at
// ~10% of the preloaded keyspace, driven by the zipf/uniform acceptance
// pair. The budget must hold (resident stays within a small overshoot
// of MaxBytes — eviction runs at batch boundaries, so transient
// overshoot is bounded by one batch's inserts), eviction must actually
// run, and the working-set hierarchy must earn its keep: the skewed
// workload's GET hit ratio beats uniform's because hot keys are
// re-promoted away from the eviction frontier. CI runs this as the
// bounded-memory smoke; E23 in docs/history/EXPERIMENTS_E18-E23.md is the
// full-length version.

import (
	"testing"

	pws "repro"
	"repro/internal/server"
)

func TestBoundedMemorySoak(t *testing.T) {
	const (
		universe = 8192
		// One loadgen item: Key(k) is 9 bytes, the value "v" is 1, plus
		// the flat structural overhead (core.itemOverhead) of 96.
		itemBytes = 9 + 1 + 96
		budget    = int64(universe/10) * itemBytes
	)
	run := func(w Workload) (Report, pws.MemStats) {
		s := server.New(server.Config{Shards: 4, P: 2, MaxBytes: budget})
		defer s.Close()
		cfg := Config{
			Conns:      4,
			Depth:      16,
			Ops:        40960,
			Workload:   w,
			Universe:   universe,
			GetFrac:    0.9,
			TTLFrac:    0.2, // some writes carry a TTL: expiry churn rides along
			TTLSeconds: 1,
			Preload:    true,
			Seed:       7,
		}
		rep, err := Run(cfg, dialer(t, s))
		if err != nil {
			t.Fatalf("Run(%s): %v", w, err)
		}
		if rep.Errors != 0 {
			t.Fatalf("%s: %d errors", w, rep.Errors)
		}
		return rep, s.Mem()
	}

	zipf, zm := run(Zipf)
	uni, um := run(Uniform)

	for _, c := range []struct {
		w  Workload
		ms pws.MemStats
	}{{Zipf, zm}, {Uniform, um}} {
		if c.ms.Bytes > budget*11/10 {
			t.Errorf("%s: resident %d bytes exceeds 1.1x budget %d", c.w, c.ms.Bytes, budget)
		}
		if c.ms.Evicted == 0 {
			t.Errorf("%s: budget at 10%% of keyspace never evicted: %+v", c.w, c.ms)
		}
	}
	if zipf.HitRatio() <= uni.HitRatio() {
		t.Errorf("zipf hit ratio %.3f not above uniform %.3f: hot keys are not being kept resident",
			zipf.HitRatio(), uni.HitRatio())
	}
	t.Logf("budget %d: zipf hit %.3f (mem %+v), uniform hit %.3f (mem %+v)",
		budget, zipf.HitRatio(), zm, uni.HitRatio(), um)
}
