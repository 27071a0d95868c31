package server

// Durability tests at the server layer: a durable server survives a
// close/reopen cycle with its exact key set, checkpoints compact the
// log without changing the recovered state, the STATS surface grows a
// wal section, and the idle-timeout reaper closes only idle
// connections. The crash-consistency (SIGKILL) side lives in the
// loadgen chaos harness; these tests cover the clean-restart contract.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wal"
	"repro/internal/wire"
)

// openDurable opens (or reopens) the WAL in dir and builds a server
// over it, replaying whatever the log holds. SnapshotBytes is negative
// so checkpoints happen only when a test asks for them.
func openDurable(t *testing.T, dir string) (*Server, *wal.Recovery) {
	t.Helper()
	log, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	srv := New(Config{Shards: 4, P: 2, WAL: log, SnapshotBytes: -1})
	if _, err := srv.Recover(rec); err != nil {
		srv.Close()
		t.Fatalf("Recover: %v", err)
	}
	return srv, rec
}

// mutate drives a deterministic set/del workload through the client
// and mirrors it into want (nil value = deleted).
func mutate(t *testing.T, c *wire.Client, want map[string]string, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < ops; i++ {
		k := fmt.Sprintf("key-%04d", rng.Intn(300))
		if rng.Intn(10) < 7 {
			v := fmt.Sprintf("v%d.%d", seed, i)
			if err := c.Set(k, v); err != nil {
				t.Fatalf("SET %s: %v", k, err)
			}
			want[k] = v
		} else {
			if _, err := c.Del(k); err != nil {
				t.Fatalf("DEL %s: %v", k, err)
			}
			delete(want, k)
		}
	}
}

// verify checks the server holds exactly want: every surviving key with
// its last value, every deleted key absent, and no phantom extras.
func verify(t *testing.T, srv *Server, want map[string]string) {
	t.Helper()
	c := pipeClient(t, srv)
	n, err := c.Len()
	if err != nil {
		t.Fatalf("LEN: %v", err)
	}
	if n != int64(len(want)) {
		t.Errorf("recovered %d keys, want %d", n, len(want))
	}
	for i := 0; i < 300; i++ {
		k := fmt.Sprintf("key-%04d", i)
		v, ok, err := c.Get(k)
		if err != nil {
			t.Fatalf("GET %s: %v", k, err)
		}
		wv, wok := want[k]
		if ok != wok || v != wv {
			t.Errorf("GET %s = (%q, %v), want (%q, %v)", k, v, ok, wv, wok)
		}
	}
}

// TestDurableRestartRecovers is the clean-restart contract: everything
// acked before a graceful close is present, with its latest value,
// after reopening the same data dir. (The "m1" subtest level is the
// server's engine name, kept from when the table had two rows.)
func TestDurableRestartRecovers(t *testing.T) {
	t.Run("m1", func(t *testing.T) {
		dir := t.TempDir()
		want := map[string]string{}

		srv, _ := openDurable(t, dir)
		mutate(t, pipeClient(t, srv), want, 1, 1000)
		verify(t, srv, want)
		if err := srv.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}

		srv2, rec := openDurable(t, dir)
		defer srv2.Close()
		if rec.SnapshotSeq() != 0 {
			t.Errorf("recovery used snapshot seq %d, want none", rec.SnapshotSeq())
		}
		ws, _ := srv2.WALStats()
		if ws.ReplayRecords == 0 {
			t.Error("recovery replayed no records")
		}
		verify(t, srv2, want)
	})
}

// TestDurableCheckpointCompacts interleaves checkpoints with mutations
// across two restart cycles: the second recovery must start from a
// snapshot (sealed segments were pruned) and still converge to the
// exact final state via replay over it.
func TestDurableCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	want := map[string]string{}

	srv, _ := openDurable(t, dir)
	c := pipeClient(t, srv)
	mutate(t, c, want, 2, 900)
	if err := srv.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	mutate(t, c, want, 3, 900) // post-checkpoint tail to replay on top
	ws, _ := srv.WALStats()
	if ws.Snapshots != 1 || ws.SnapSeq == 0 {
		t.Fatalf("after Checkpoint: stats %+v", ws)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	srv2, rec := openDurable(t, dir)
	if rec.SnapshotSeq() == 0 {
		t.Error("second boot ignored the checkpoint")
	}
	ws2, _ := srv2.WALStats()
	if ws2.ReplaySnapPairs == 0 || ws2.ReplayRecords <= ws2.ReplaySnapPairs {
		t.Errorf("replay split snap=%d total=%d, want snapshot pairs plus a log tail",
			ws2.ReplaySnapPairs, ws2.ReplayRecords)
	}
	verify(t, srv2, want)
	if err := srv2.Close(); err != nil {
		t.Fatalf("Close 2: %v", err)
	}

	// Third boot proves the pruned directory is still self-sufficient.
	srv3, _ := openDurable(t, dir)
	defer srv3.Close()
	verify(t, srv3, want)
}

// TestDurableStatsSurface pins the durable additions to the telemetry
// surfaces: STATS gains the wal section, and its counters are coherent
// with the load.
func TestDurableStatsSurface(t *testing.T) {
	srv, _ := openDurable(t, t.TempDir())
	defer srv.Close()
	c := pipeClient(t, srv)
	mutate(t, c, map[string]string{}, 4, 200)

	rep, err := c.Do("STATS")
	if err != nil || rep.Kind != wire.BulkReply {
		t.Fatalf("STATS = %+v, %v", rep, err)
	}
	for _, key := range []string{
		"SECTION wal", "wal_policy", "wal_seq", "wal_snap_seq",
		"wal_batches", "wal_records", "wal_bytes", "wal_syncs",
		"wal_sync_errors", "wal_rotations", "wal_snapshots",
		"wal_torn_tails", "wal_replay_batches", "wal_replay_records",
		"SECTION histo wal_fsync", "wal_fsync_count",
	} {
		if !strings.Contains(rep.Str, key) {
			t.Errorf("STATS missing %q", key)
		}
	}
	ws, ok := srv.WALStats()
	if !ok || ws.Batches == 0 || ws.Records == 0 || ws.Syncs == 0 {
		t.Errorf("WAL stats after write load: %+v", ws)
	}
	if hist := srv.wal.FsyncHist(); hist.Count == 0 {
		t.Error("fsync histogram empty under fsync=always")
	}
	if st := srv.Obs().Stages().Snapshot(); st[len(st)-1].Count == 0 {
		t.Error("stage fsync recorded nothing under durable load")
	}
}

// TestGroupCommitWindowCuts checks, by counts, that a WAL-backed server
// at its default window waits for the connections it just answered and
// not for a number of operations: one client's sequential SETs make no
// window cut after the cold first, and two clients with uneven pipelines
// share cuts instead of each waiting out the window for the other.
func TestGroupCommitWindowCuts(t *testing.T) {
	open := func(t *testing.T) *Server {
		log, _, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever, Logf: t.Logf})
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		return newTestServer(t, Config{WAL: log, SnapshotBytes: -1})
	}

	t.Run("lone", func(t *testing.T) {
		srv := open(t)
		c := pipeClient(t, srv)
		for i := 0; i < 200; i++ {
			if err := c.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
		if cs := srv.CoalesceStats(); cs.WindowCuts > 1 {
			t.Errorf("200 sequential SETs made %d window cuts, want at most the cold one: %+v", cs.WindowCuts, cs)
		}
	})

	t.Run("uneven", func(t *testing.T) {
		const rounds = 300
		srv := open(t)
		errc := make(chan error, 2)
		for id, depth := range []int{1, 8} {
			go func(id, depth int, c *wire.Client) {
				for r := 0; r < rounds; r++ {
					for i := 0; i < depth; i++ {
						if err := c.Send("SET", fmt.Sprintf("c%d-%d", id, i), "v"); err != nil {
							errc <- err
							return
						}
					}
					if err := c.Flush(); err != nil {
						errc <- err
						return
					}
					for i := 0; i < depth; i++ {
						if rep, err := c.Recv(); err != nil || rep.Str != "OK" {
							errc <- fmt.Errorf("client %d round %d: reply %+v, %v", id, r, rep, err)
							return
						}
					}
				}
				errc <- nil
			}(id, depth, pipeClient(t, srv))
		}
		for i := 0; i < 2; i++ {
			if err := <-errc; err != nil {
				t.Fatal(err)
			}
		}
		// A window cut here means the eight-SET client came back more than
		// a window after the one-SET client. The race detector slows every
		// round trip several-fold while the window stays 200µs, so it
		// allows 8 % (measured 1–4.4 % there, against 13–22 % for the
		// ops-counting trigger). CI runs this test with and without the
		// detector, so the 2 % limit is enforced there too.
		limit := 0.02
		if raceEnabled {
			limit = 0.08
		}
		cs := srv.CoalesceStats()
		if float64(cs.WindowCuts) > limit*float64(cs.Batches) {
			t.Errorf("window cuts %d of %d batches, want at most %.0f%%: %+v", cs.WindowCuts, cs.Batches, limit*100, cs)
		}
		t.Logf("%+v (%.2f jobs/cut)", cs, float64(cs.Jobs)/float64(cs.Batches))
	})
}

// TestIdleTimeoutReapsOnlyIdle arms a short idle deadline and checks it
// cuts a connection that never sends a command while leaving a slow but
// live connection untouched.
func TestIdleTimeoutReapsOnlyIdle(t *testing.T) {
	srv := newTestServer(t, Config{IdleTimeout: 50 * time.Millisecond})
	idleNC, err := srv.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer idleNC.Close()
	active := pipeClient(t, srv)

	// The idle side never sends a byte; the server must close it. The
	// blocking read observes that close as an error/EOF.
	reaped := make(chan error, 1)
	go func() {
		_, err := idleNC.Read(make([]byte, 1))
		reaped <- err
	}()

	deadline := time.Now().Add(2 * time.Second)
	for {
		select {
		case err := <-reaped:
			t.Logf("idle connection reaped: %v", err)
			// The active connection must have survived the reaping.
			if r, err := active.Do("PING"); err != nil || r.Str != "PONG" {
				t.Fatalf("active connection died with the idle one: %+v, %v", r, err)
			}
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("idle connection survived 2s with a 50ms idle timeout")
		}
		// The active connection keeps talking, staying inside the window.
		if r, err := active.Do("PING"); err != nil || r.Str != "PONG" {
			t.Fatalf("active connection died: %+v, %v", r, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCheckpointWaitsForOpenCut is the oracle for the one ordering rule
// log-first commit adds: a checkpoint may not rotate between a cut's
// frame write and the end of its apply. One cut is held after its frame
// is written, as its sync begins while its shards apply it; a
// checkpoint is started; the cut is let go and acks; a crash image of
// the data directory must recover the acked write. Were the rotation
// allowed, the checkpoint's scan could miss the write, and the segment
// holding its frame would be pruned behind the checkpoint.
func TestCheckpointWaitsForOpenCut(t *testing.T) {
	dir := t.TempDir()
	srv, _ := openDurable(t, dir)
	defer srv.Close()
	c := pipeClient(t, srv)
	want := map[string]string{}
	mutate(t, c, want, 5, 300)

	written, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.cutHook = func() {
		once.Do(func() {
			close(written)
			<-resume
		})
	}
	acked := make(chan error, 1)
	go func() { acked <- c.Set("late", "acked") }()
	<-written

	seq := srv.wal.Seq()
	ckpt := make(chan error, 1)
	go func() { ckpt <- srv.Checkpoint() }()
	// The rule keeps the segment where it is while the cut is held. A
	// rotation would show within the wait; the checkpoint then runs to
	// the end before the cut goes on, as a fuzzy scan may.
	rotated := false
	for deadline := time.Now().Add(200 * time.Millisecond); !rotated && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		rotated = srv.wal.Seq() != seq
	}
	if rotated {
		t.Error("the checkpoint rotated while a cut was between its frame write and its apply")
		if err := <-ckpt; err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	close(resume)
	if err := <-acked; err != nil {
		t.Fatalf("SET late: %v", err)
	}
	if !rotated {
		if err := <-ckpt; err != nil {
			t.Fatalf("Checkpoint: %v", err)
		}
	}
	want["late"] = "acked"

	// Every acked frame is fsynced: a copy of the directory now is what
	// a SIGKILL would leave.
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv2, rec := openDurable(t, crash)
	defer srv2.Close()
	if rec.SnapshotSeq() == 0 {
		t.Fatal("recovery did not start from the checkpoint")
	}
	verify(t, srv2, want)
	if v, ok, err := pipeClient(t, srv2).Get("late"); err != nil || !ok || v != "acked" {
		t.Fatalf("acked write after recovery: GET late = (%q, %v, %v)", v, ok, err)
	}
}

// TestDurableFrontFillWaitsForSync checks that the front never serves a
// value before the WAL sync that makes it durable has returned. FrontGet
// answers a GET without a cut, so a value it serves has reached a client
// as surely as an acked reply: were the sync to fail, or the machine to
// crash, recovery would not have it. One pipeline writes k and then
// reads it back, with enough other writes between them that the shard's
// engine splits the sub-batch into several engine batches: the read
// finds the new value resident in a later engine batch than the write,
// in a group that writes nothing. The cut's sync is held until the
// shard has applied the whole cut; the front must not hold the new value
// then, and holds it once the sync has returned.
func TestDurableFrontFillWaitsForSync(t *testing.T) {
	log, rec, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	srv := New(Config{Shards: 1, P: 2, FrontCache: 64, WAL: log, SnapshotBytes: -1})
	defer srv.Close()
	if _, err := srv.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	c := pipeClient(t, srv)
	if err := c.Set("k", "old"); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := c.Get("k"); err != nil || !ok || v != "old" {
		t.Fatalf("GET k = (%q, %v, %v)", v, ok, err)
	}
	if v, ok := srv.store.FrontGet("k"); !ok || v != "old" {
		t.Fatalf("FrontGet(k) = (%q, %v) after a GET of k; want a hit on old", v, ok)
	}

	syncing, resume := make(chan struct{}), make(chan struct{})
	var once sync.Once
	srv.cutHook = func() {
		once.Do(func() {
			close(syncing)
			<-resume
		})
	}
	cmds := [][]string{{"SET", "k", "new"}}
	for i := 0; i < 8; i++ {
		cmds = append(cmds, []string{"SET", fmt.Sprintf("f%d", i), "x"})
	}
	cmds = append(cmds, []string{"GET", "k"}, []string{"SET", "z", "x"})
	for _, args := range cmds {
		if err := c.Send(args...); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	<-syncing
	// The shard applies the cut while its leader syncs; z is the cut's
	// last op, so once z is counted the read of k has resolved.
	for deadline := time.Now().Add(5 * time.Second); srv.store.Len() < 10; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			close(resume)
			t.Fatalf("the cut was not applied while its sync was held: %d keys", srv.store.Len())
		}
	}
	v, ok := srv.store.FrontGet("k")
	close(resume)
	if ok {
		t.Errorf("FrontGet(k) = %q while the SET of k was not yet durable; want a miss", v)
	}
	for i, args := range cmds {
		rep, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if args[0] == "GET" && (rep.Kind != wire.BulkReply || rep.Str != "new") {
			t.Fatalf("reply %d: GET k = %+v, want new", i, rep)
		}
	}
	if v, ok := srv.store.FrontGet("k"); !ok || v != "new" {
		t.Fatalf("FrontGet(k) = (%q, %v) after the cut was acked; want a hit on new", v, ok)
	}
}
