package coalesce

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// newMapCoalescer builds a Coalescer over a real sharded map.
func newMapCoalescer(t *testing.T, cfg Config, shards int) (*Coalescer[string, string], *shard.Map[string, string]) {
	t.Helper()
	m := shard.New[string, string](shard.Config{Shards: shards, P: 2})
	c := New(cfg, mapApplier(m))
	t.Cleanup(func() {
		c.Close()
		m.Close()
	})
	return c, m
}

// mapApplier is m's ApplyScattered with no overlap work, the applier a
// memory-mode server hands the coalescer.
func mapApplier(m *shard.Map[string, string]) Applier[string, string] {
	return func(batches [][]core.Op[string, string], dsts [][]core.Result[string]) {
		m.ApplyScattered(batches, dsts, nil)
	}
}

// TestCoalesceExactResults drives many concurrent submitters over disjoint
// key ranges, each submitting its jobs in order, and checks every result
// against a local model: group commit must not lose, reorder or cross-wire
// any submitter's results.
func TestCoalesceExactResults(t *testing.T) {
	const (
		submitters = 8
		rounds     = 60
		opsPerJob  = 5
	)
	c, _ := newMapCoalescer(t, Config{MaxBatch: 16, MaxDelay: 100 * time.Microsecond}, 4)
	var wg sync.WaitGroup
	errc := make(chan error, submitters)
	for id := 0; id < submitters; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			model := map[string]string{}
			job := &Job[string, string]{}
			for r := 0; r < rounds; r++ {
				job.Ops = job.Ops[:0]
				type want struct {
					ok  bool
					val string
				}
				wants := make([]want, 0, opsPerJob)
				for i := 0; i < opsPerJob; i++ {
					k := fmt.Sprintf("s%d-k%02d", id, (r+i)%17)
					switch (r + i) % 3 {
					case 0:
						v, ok := model[k]
						wants = append(wants, want{ok, v})
						job.Ops = append(job.Ops, core.Op[string, string]{Kind: core.OpGet, Key: k})
					case 1:
						v, ok := model[k]
						wants = append(wants, want{ok, v})
						nv := fmt.Sprintf("v%d-%d", r, i)
						model[k] = nv
						job.Ops = append(job.Ops, core.Op[string, string]{Kind: core.OpInsert, Key: k, Val: nv})
					default:
						v, ok := model[k]
						wants = append(wants, want{ok, v})
						delete(model, k)
						job.Ops = append(job.Ops, core.Op[string, string]{Kind: core.OpDelete, Key: k})
					}
				}
				c.Submit(job)
				job.Wait()
				for i, w := range wants {
					got := job.Res[i]
					if got.OK != w.ok || got.Val != w.val {
						errc <- fmt.Errorf("submitter %d round %d op %d: got (%q,%v), want (%q,%v)",
							id, r, i, got.Val, got.OK, w.val, w.ok)
						return
					}
				}
			}
		}(id)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	st := c.Stats()
	if st.Ops != submitters*rounds*opsPerJob {
		t.Errorf("ops = %d, want %d", st.Ops, submitters*rounds*opsPerJob)
	}
	if st.Batches >= st.Ops {
		t.Errorf("no coalescing happened: %d batches for %d ops", st.Batches, st.Ops)
	}
	t.Logf("stats: %+v (avg batch %.1f)", st, st.AvgBatch())
}

// TestCoalesceSubmissionOrder checks that two jobs submitted back-to-back
// by one submitter land in the combined batch in submission order: the
// later SET of the same key must win.
func TestCoalesceSubmissionOrder(t *testing.T) {
	c, _ := newMapCoalescer(t, Config{MaxBatch: 1 << 20, MaxDelay: 200 * time.Microsecond}, 2)
	for r := 0; r < 50; r++ {
		k := fmt.Sprintf("k%d", r)
		j1 := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpInsert, Key: k, Val: "first"}}}
		j2 := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpInsert, Key: k, Val: "second"}}}
		j3 := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpGet, Key: k}}}
		c.Submit(j1)
		c.Submit(j2)
		c.Submit(j3)
		j1.Wait()
		j2.Wait()
		j3.Wait()
		if j2.Res[0].Val != "first" || !j2.Res[0].OK {
			t.Fatalf("round %d: second insert saw (%q,%v), want previous value \"first\"", r, j2.Res[0].Val, j2.Res[0].OK)
		}
		if j3.Res[0].Val != "second" {
			t.Fatalf("round %d: get after two ordered inserts = %q, want \"second\"", r, j3.Res[0].Val)
		}
	}
}

// TestCoalesceCutPolicy checks the size trigger: a batch reaching
// MaxBatch ops cuts without waiting out the (here absurdly long) window.
func TestCoalesceCutPolicy(t *testing.T) {
	c, _ := newMapCoalescer(t, Config{MaxBatch: 4, MaxDelay: 10 * time.Second}, 1)
	j := &Job[string, string]{}
	for i := 0; i < 4; i++ {
		j.Ops = append(j.Ops, core.Op[string, string]{
			Kind: core.OpInsert, Key: fmt.Sprintf("k%d", i), Val: "v"})
	}
	start := time.Now()
	c.Submit(j)
	j.Wait()
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("size-triggered cut took %v; window wait leaked in", el)
	}
	st := c.Stats()
	if st.SizeCuts == 0 {
		t.Errorf("no size-triggered cut recorded: %+v", st)
	}
	if st.Ops != 4 {
		t.Errorf("ops = %d, want 4", st.Ops)
	}
}

// insertJob returns a one-op job writing key.
func insertJob(key string) *Job[string, string] {
	return &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpInsert, Key: key, Val: "v"}}}
}

// submitAll submits jobs in order and waits for all of them.
func submitAll(c *Coalescer[string, string], jobs ...*Job[string, string]) {
	for _, j := range jobs {
		c.Submit(j)
	}
	for _, j := range jobs {
		j.Wait()
	}
}

// TestCoalesceRefillTrigger checks the returning-submitters trigger end to
// end: after a window-bounded cut carries eight jobs, the next cut must
// commit as soon as six of them (three quarters) are resubmitted —
// including the Submit-side wake-up. Without the wake, the submission that
// completes the quorum while the commit loop sleeps on the window timer
// would wait out the whole window anyway.
func TestCoalesceRefillTrigger(t *testing.T) {
	const window = 300 * time.Millisecond
	c, _ := newMapCoalescer(t, Config{MaxBatch: 1 << 20, MaxDelay: window}, 1)

	// Wave 1: eight single-op jobs land well inside the cold window and
	// commit as one window-bounded cut.
	jobs := make([]*Job[string, string], 8)
	for i := range jobs {
		jobs[i] = insertJob(fmt.Sprintf("w%d", i))
	}
	submitAll(c, jobs...)
	if st := c.Stats(); st.WindowCuts != 1 || st.Jobs != 8 {
		t.Fatalf("wave 1 was not one window-bounded cut of 8 jobs: %+v", st)
	}

	// Wave 2: six of the eight come back, one goroutine each, so the
	// commit loop is already asleep on the window when the quorum lands;
	// they must commit far inside the window.
	start := time.Now()
	var wg sync.WaitGroup
	for _, j := range jobs[:6] {
		wg.Add(1)
		go func(j *Job[string, string]) {
			defer wg.Done()
			submitAll(c, j)
		}(j)
	}
	wg.Wait()
	if el := time.Since(start); el > window/2 {
		t.Errorf("quorum-triggered cut took %v; the window (%v) leaked onto the critical path", el, window)
	}
	if st := c.Stats(); st.WindowCuts != 1 || st.Jobs != 14 {
		t.Errorf("wave 2 waited out a window or lost a job: %+v", st)
	}
}

// TestCoalesceLoneSubmitter checks the shape the ops-counting trigger got
// wrong: one submitter sending one-op jobs back to back. Only the cold
// coalescer's first cut waits out the window; every later cut fires the
// moment the one job it waits for comes back.
func TestCoalesceLoneSubmitter(t *testing.T) {
	const n = 200
	c, _ := newMapCoalescer(t, Config{MaxBatch: 1 << 20, MaxDelay: 20 * time.Millisecond}, 2)
	j := insertJob("k")
	for i := 0; i < n; i++ {
		submitAll(c, j)
	}
	st := c.Stats()
	if st.Batches != n || st.WindowCuts != 1 || st.SizeCuts != n-1 {
		t.Errorf("%d lone jobs: %+v, want %d batches and only the first a window cut", n, st, n)
	}
}

// TestCoalesceUnevenSubmittersConverge runs two free-running submitters
// whose jobs differ eightfold in size. Counting operations, the small
// job's cut never reached three quarters of the big one's and waited out
// the window; counting submitters, both ride the cold window's cut, every
// later cut waits for both, and none waits out the window. The window is
// wide so that a submitter the scheduler leaves unscheduled for a few
// milliseconds is still waited for: one that stays out longer than the
// window is taken for gone, and the other then cuts alone.
func TestCoalesceUnevenSubmittersConverge(t *testing.T) {
	const rounds = 100
	c, _ := newMapCoalescer(t, Config{MaxBatch: 1 << 20, MaxDelay: 50 * time.Millisecond}, 2)
	var wg sync.WaitGroup
	for id, size := range []int{1, 8} {
		j := &Job[string, string]{}
		for i := 0; i < size; i++ {
			j.Ops = append(j.Ops, core.Op[string, string]{
				Kind: core.OpInsert, Key: fmt.Sprintf("s%d-%d", id, i), Val: "v"})
		}
		wg.Add(1)
		go func(j *Job[string, string]) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				submitAll(c, j)
			}
		}(j)
	}
	wg.Wait()
	st := c.Stats()
	if st.WindowCuts > 2 || st.Batches > rounds+rounds/10 {
		t.Errorf("uneven submitters did not converge to shared cuts: %+v (avg %.2f jobs/cut)",
			st, float64(st.Jobs)/float64(st.Batches))
	}
	t.Logf("%+v", st)
}

// TestCoalesceSkipReleasesCut checks that Skip stands in for a job that
// will not be resubmitted: with two jobs released, one resubmission alone
// is short of the quorum and waits, and the other's Skip fires the cut.
func TestCoalesceSkipReleasesCut(t *testing.T) {
	const window = 10 * time.Second
	// MaxBatch 2 cuts the two one-op jobs at once, skipping the cold window.
	c, _ := newMapCoalescer(t, Config{MaxBatch: 2, MaxDelay: window}, 1)
	a, b := insertJob("a"), insertJob("b")
	submitAll(c, a, b)

	start := time.Now()
	c.Submit(a)
	time.Sleep(20 * time.Millisecond) // the loop is now asleep on the window
	if st := c.Stats(); st.Batches != 1 {
		t.Fatalf("a cut fired with half its quorum back: %+v", st)
	}
	c.Skip(b)
	a.Wait()
	if el := time.Since(start); el > window/2 {
		t.Errorf("Skip did not release the waiting cut: it took %v", el)
	}
	if st := c.Stats(); st.WindowCuts != 0 || st.Batches != 2 {
		t.Errorf("want two size cuts and no window cut: %+v", st)
	}
}

// TestCoalesceVanishedSubmitter checks that a submitter which goes quiet
// without a Skip costs one window, not one per cut: the cut after the one
// that carried it waits only for the submitters still present.
func TestCoalesceVanishedSubmitter(t *testing.T) {
	const rounds = 10
	c, _ := newMapCoalescer(t, Config{MaxBatch: 2, MaxDelay: 20 * time.Millisecond}, 1)
	a, b := insertJob("a"), insertJob("b")
	submitAll(c, a, b) // one size cut; b never comes back
	for r := 0; r < rounds; r++ {
		submitAll(c, a)
	}
	if st := c.Stats(); st.WindowCuts != 1 || st.SizeCuts != rounds {
		t.Errorf("a vanished submitter cost %d windows, want 1: %+v", st.WindowCuts, st)
	}
}

// TestCoalesceNewSubmitterRides checks that a submitter the previous cut
// did not carry rides the next cut without counting toward it: with a and
// c released, a newcomer b queued beside a does not fire the cut; it
// fires when c is back too, and carries all three.
func TestCoalesceNewSubmitterRides(t *testing.T) {
	// a has one op and c two, so MaxBatch 3 cuts them at once, skipping
	// the cold window, while b and a alone stay below it.
	c, _ := newMapCoalescer(t, Config{MaxBatch: 3, MaxDelay: 10 * time.Second}, 1)
	a, cc, b := insertJob("a"), insertJob("c"), insertJob("b")
	cc.Ops = append(cc.Ops, core.Op[string, string]{Kind: core.OpInsert, Key: "c2", Val: "v"})
	submitAll(c, a, cc)

	c.Submit(b)
	c.Submit(a)
	time.Sleep(20 * time.Millisecond)
	if st := c.Stats(); st.Batches != 1 {
		t.Fatalf("the newcomer counted toward the quorum: %+v", st)
	}
	submitAll(c, cc)
	b.Wait()
	a.Wait()
	if st := c.Stats(); st.Batches != 2 || st.Jobs != 5 || st.WindowCuts != 0 {
		t.Errorf("newcomer did not ride one cut with a and c: %+v", st)
	}
}

// TestCoalesceWindowExpiry checks that a lone job below the size threshold
// commits once the window expires (and not much later).
func TestCoalesceWindowExpiry(t *testing.T) {
	const window = 20 * time.Millisecond
	c, _ := newMapCoalescer(t, Config{MaxBatch: 1 << 20, MaxDelay: window}, 1)
	j := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpInsert, Key: "k", Val: "v"}}}
	start := time.Now()
	c.Submit(j)
	j.Wait()
	el := time.Since(start)
	if el < window {
		t.Errorf("job committed after %v, before the %v window", el, window)
	}
	if el > 50*window {
		t.Errorf("job committed after %v, far beyond the %v window", el, window)
	}
	if st := c.Stats(); st.WindowCuts == 0 {
		t.Errorf("no window-triggered cut recorded: %+v", st)
	}
}

// TestCoalesceNoWindow checks MaxDelay zero: "no added latency" means the
// commit loop cuts the moment it is free, so N sequential lone jobs are N
// batches, none of them a window cut — the timer is never armed, which on
// an otherwise idle process is the difference between a few microseconds
// and a late-firing timer per operation.
func TestCoalesceNoWindow(t *testing.T) {
	const n = 200
	c, _ := newMapCoalescer(t, Config{MaxBatch: 1 << 20}, 2)
	j := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpInsert, Key: "k", Val: "v"}}}
	for i := 0; i < n; i++ {
		c.Submit(j)
		j.Wait()
	}
	st := c.Stats()
	if st.Batches != n || st.Ops != n {
		t.Errorf("%d lone jobs made %d batches of %d ops, want %d of %d", n, st.Batches, st.Ops, n, n)
	}
	if st.WindowCuts != 0 || st.SizeCuts != n {
		t.Errorf("cut causes %+v, want %d immediate (size) cuts and no window cut", st, n)
	}
}

// TestCoalesceCloseDrains checks that Close commits jobs still waiting in
// an open window immediately, and that Submit after Close panics.
func TestCoalesceCloseDrains(t *testing.T) {
	m := shard.New[string, string](shard.Config{Shards: 2, P: 2})
	defer m.Close()
	c := New(Config{MaxBatch: 1 << 20, MaxDelay: 10 * time.Second}, mapApplier(m))
	j := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpInsert, Key: "k", Val: "v"}}}
	c.Submit(j)
	start := time.Now()
	c.Close() // must not wait out the 10s window
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("Close took %v; did not preempt the window", el)
	}
	j.Wait()
	if v, ok := m.Get("k"); !ok || v != "v" {
		t.Fatalf("drained job not applied: (%q, %v)", v, ok)
	}
	if st := c.Stats(); st.DrainCuts == 0 && st.Batches != 1 {
		t.Errorf("drain not recorded: %+v", st)
	}
	defer func() {
		if recover() == nil {
			t.Error("Submit after Close did not panic")
		}
	}()
	c.Submit(&Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpGet, Key: "k"}}})
}

// TestCoalesceDuplicateCombining checks the whole point of cross-
// connection coalescing: two submitters accessing the same key inside one
// window are combined into one group operation by the engine. The
// structural-work counter shows it — a combined pair costs the same
// segment work as a single access, strictly less than two separate ones.
func TestCoalesceDuplicateCombining(t *testing.T) {
	var cnt metrics.Counter
	m := core.NewM1[string, string](core.Config{P: 2, Counter: &cnt})
	defer m.Close()
	c := New(Config{MaxBatch: 1 << 20, MaxDelay: 2 * time.Millisecond},
		func(batches [][]core.Op[string, string], dsts [][]core.Result[string]) {
			// One engine batch for the whole cut, as the shard layer
			// hands it over: concatenate, apply once, scatter back.
			var ops []core.Op[string, string]
			for _, b := range batches {
				ops = append(ops, b...)
			}
			res := m.ApplyInto(ops, nil)
			for _, dst := range dsts {
				res = res[copy(dst, res):]
			}
		})
	defer c.Close()

	// Preload so searches do real tree work.
	for i := 0; i < 512; i++ {
		m.Insert(fmt.Sprintf("k%04d", i), "v")
	}
	m.Quiesce()

	single := func() int64 {
		before := cnt.Total()
		j := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpGet, Key: "k0100"}}}
		c.Submit(j)
		j.Wait()
		m.Quiesce()
		return cnt.Total() - before
	}
	single() // warm: promote k0100 to the front segment
	singleCost := single()

	before := cnt.Total()
	j1 := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpGet, Key: "k0100"}}}
	j2 := &Job[string, string]{Ops: []core.Op[string, string]{{Kind: core.OpGet, Key: "k0100"}}}
	c.Submit(j1)
	c.Submit(j2)
	j1.Wait()
	j2.Wait()
	m.Quiesce()
	dupCost := cnt.Total() - before

	if !j1.Res[0].OK || !j2.Res[0].OK || j1.Res[0].Val != "v" || j2.Res[0].Val != "v" {
		t.Fatalf("combined gets wrong: %+v %+v", j1.Res[0], j2.Res[0])
	}
	if dupCost >= 2*singleCost {
		t.Errorf("two same-key gets in one window cost %d, want < 2x single cost %d (no combining?)",
			dupCost, singleCost)
	}
	t.Logf("single=%d combined-pair=%d", singleCost, dupCost)
}

// TestCoalesceReleaseAfterApply pins the Applier contract the server's
// durable mode builds on: Job.Wait must not return for any job of a
// cut until the applier has fully returned for that cut — whatever the
// applier does synchronously (apply, WAL append, fsync) happens
// strictly before any waiter is released.
func TestCoalesceReleaseAfterApply(t *testing.T) {
	// The applier marks each key "durable" only at its very END — after
	// filling results and sleeping. A waiter whose Wait returned must
	// find its own key already marked, or the release jumped the applier.
	var durable sync.Map
	var applied atomic.Int64
	c := New(Config{MaxBatch: 4, MaxDelay: 50 * time.Microsecond},
		func(batches [][]core.Op[string, string], dsts [][]core.Result[string]) {
			for i, b := range batches {
				for j := range b {
					dsts[i][j] = core.Result[string]{}
				}
				applied.Add(int64(len(b)))
			}
			// Widen the window a prematurely released waiter would hit.
			time.Sleep(200 * time.Microsecond)
			for _, b := range batches {
				for j := range b {
					durable.Store(b[j].Key, true)
				}
			}
		})
	defer c.Close()

	const waiters = 8
	var wg sync.WaitGroup
	var violations atomic.Int64
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				j := &Job[string, string]{Ops: []core.Op[string, string]{
					{Kind: core.OpInsert, Key: key, Val: "v"}}}
				c.Submit(j)
				j.Wait()
				if _, ok := durable.Load(key); !ok {
					violations.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d waiters released before the applier finished their cut", v)
	}
	if applied.Load() != waiters*50 {
		t.Fatalf("applied %d ops, want %d", applied.Load(), waiters*50)
	}
}

// TestCoalesceLeaderHandoff is the oracle for submitter-led cuts: 8
// submitters with random job sizes (1–64 ops on 48 shared keys) and
// random Skips run 2,000 rounds each on a 2-shard map, without a window
// and with one. The applier replays every cut, in the order cuts run,
// against a sequential model and records which job each batch was. Every
// job must be committed exactly once, a submitter's jobs in submission
// order, with the model's results delivered to its own Res; applier calls
// must never overlap; Stats().Jobs must count the jobs submitted; and no
// Wait may exceed a 10 s watchdog, which dumps every goroutine.
func TestCoalesceLeaderHandoff(t *testing.T) {
	const (
		submitters = 8
		rounds     = 2000
		keys       = 48
		watchdog   = 10 * time.Second
	)
	for _, window := range []time.Duration{0, 200 * time.Microsecond} {
		t.Run(fmt.Sprintf("window%v", window), func(t *testing.T) {
			m := shard.New[int, int](shard.Config{Shards: 2, P: 2})
			defer m.Close()
			// An op's Val tags its job: (submitter*rounds + round)*64 + op.
			var (
				model    = map[int]int{}
				want     [submitters][]core.Result[int]
				last     [submitters]int // last committed round + 1
				inApply  atomic.Bool
				failures atomic.Int64
			)
			fail := func(format string, args ...any) {
				failures.Add(1)
				t.Errorf(format, args...)
			}
			c := New(Config{MaxBatch: 256, MaxDelay: window},
				func(batches [][]core.Op[int, int], dsts [][]core.Result[int]) {
					if inApply.Swap(true) {
						fail("applier invoked while another cut was applying")
					}
					defer inApply.Store(false)
					m.ApplyScattered(batches, dsts, nil)
					for b, ops := range batches {
						tag := ops[0].Val / 64
						s, r := tag/rounds, tag%rounds
						if r+1 <= last[s] {
							fail("submitter %d round %d committed after its round %d", s, r, last[s]-1)
						}
						last[s] = r + 1
						want[s] = want[s][:0]
						for i, op := range ops {
							v, ok := model[op.Key]
							switch op.Kind {
							case core.OpInsert:
								model[op.Key] = op.Val
							case core.OpDelete:
								delete(model, op.Key)
							}
							exp := core.Result[int]{Val: v, OK: ok}
							want[s] = append(want[s], exp)
							if dsts[b][i] != exp {
								fail("submitter %d round %d op %d: map gave %+v, model %+v", s, r, i, dsts[b][i], exp)
							}
						}
					}
				})
			defer c.Close()

			var waitingSince [submitters]atomic.Int64
			stop := make(chan struct{})
			var dog sync.WaitGroup
			dog.Add(1)
			go func() {
				defer dog.Done()
				tick := time.NewTicker(50 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stop:
						return
					case <-tick.C:
					}
					for s := range waitingSince {
						if since := waitingSince[s].Load(); since != 0 && time.Since(time.Unix(0, since)) > watchdog {
							buf := make([]byte, 1<<20)
							buf = buf[:runtime.Stack(buf, true)]
							panic(fmt.Sprintf("submitter %d blocked in Wait past %v\n%s", s, watchdog, buf))
						}
					}
				}
			}()

			var wg sync.WaitGroup
			var submitted atomic.Int64
			for s := range submitters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(s) + 1))
					j := &Job[int, int]{Ops: make([]core.Op[int, int], 0, 64)}
					for r := range rounds {
						if rng.Intn(4) == 0 {
							c.Skip(j)
							continue
						}
						j.Ops = j.Ops[:0]
						for i := range 1 + rng.Intn(64) {
							op := core.Op[int, int]{Kind: core.OpGet, Key: rng.Intn(keys), Val: (s*rounds+r)*64 + i}
							switch rng.Intn(3) {
							case 0:
								op.Kind = core.OpInsert
							case 1:
								op.Kind = core.OpDelete
							}
							j.Ops = append(j.Ops, op)
						}
						submitted.Add(1)
						waitingSince[s].Store(time.Now().UnixNano())
						c.Submit(j)
						j.Wait()
						waitingSince[s].Store(0)
						if last[s] != r+1 {
							fail("submitter %d round %d: Wait returned before its cut committed", s, r)
							return
						}
						for i, got := range j.Res {
							if got != want[s][i] {
								fail("submitter %d round %d op %d: got %+v, want %+v", s, r, i, got, want[s][i])
								return
							}
						}
						if failures.Load() > 0 {
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stop)
			dog.Wait()
			if st := c.Stats(); st.Jobs != submitted.Load() {
				t.Errorf("Stats().Jobs = %d, want the %d jobs submitted", st.Jobs, submitted.Load())
			}
			t.Logf("window %v: %+v", window, c.Stats())
		})
	}
}
