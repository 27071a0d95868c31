package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// testOpen opens a log in dir with small segments and quiet warnings
// routed to t.
func testOpen(t *testing.T, dir string, opt Options) (*Log, *Recovery) {
	t.Helper()
	opt.Dir = dir
	if opt.Logf == nil {
		opt.Logf = t.Logf
	}
	l, rec, err := Open(opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return l, rec
}

// replayAll replays rec into a flat model map (empty-string value
// means deleted is NOT representable; deletes remove the key).
func replayAll(t *testing.T, rec *Recovery) map[string]string {
	t.Helper()
	m := map[string]string{}
	if err := rec.Replay(func(recs []Record) error {
		for _, r := range recs {
			if r.Del {
				delete(m, r.Key)
			} else {
				m[r.Key] = r.Val
			}
		}
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return m
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := testOpen(t, dir, Options{Policy: SyncAlways})
	if len(replayAll(t, rec)) != 0 {
		t.Fatal("fresh log replayed records")
	}
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		var batch []Record
		for j := 0; j < 7; j++ {
			k := fmt.Sprintf("k%03d", (i*7+j)%50)
			if (i+j)%5 == 0 {
				batch = append(batch, Record{Key: k, Del: true})
				delete(want, k)
			} else {
				v := fmt.Sprintf("v%d.%d", i, j)
				batch = append(batch, Record{Key: k, Val: v})
				want[k] = v
			}
		}
		if err := l.AppendBatch(batch); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	if err := l.AppendBatch(nil); err != nil {
		t.Fatalf("empty AppendBatch: %v", err)
	}
	st := l.Stats()
	if st.Batches != 40 || st.Records != 40*7 {
		t.Fatalf("stats: got %d batches / %d records", st.Batches, st.Records)
	}
	if st.Syncs < 40 {
		t.Fatalf("fsync=always recorded only %d syncs", st.Syncs)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := testOpen(t, dir, Options{})
	defer l2.Close()
	got := replayAll(t, rec2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d keys, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("key %q: got %q want %q", k, got[k], v)
		}
	}
	if s := l2.Stats(); s.ReplayBatches != 40 || s.ReplayRecords != 40*7 {
		t.Fatalf("replay stats: %+v", s)
	}
}

func TestRotationSealsSegments(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 256})
	for i := 0; i < 50; i++ {
		err := l.AppendBatch([]Record{{Key: fmt.Sprintf("key-%04d", i),
			Val: strings.Repeat("x", 40)}})
		if err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("no rotations at a 256-byte segment cap")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _, err := scanDir(Options{Dir: dir})
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments, got %d (%v)", len(segs), err)
	}
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			t.Fatalf("segment gap: %v", segs)
		}
	}
	l2, rec := testOpen(t, dir, Options{})
	defer l2.Close()
	got := replayAll(t, rec)
	if len(got) != 50 {
		t.Fatalf("replayed %d keys, want 50", len(got))
	}
}

func TestSnapshotPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{Policy: SyncNever, SegmentBytes: 512})
	live := map[string]string{}
	put := func(i int) {
		k := fmt.Sprintf("key-%04d", i%64)
		v := fmt.Sprintf("val-%d-%s", i, strings.Repeat("y", 30))
		if err := l.AppendBatch([]Record{{Key: k, Val: v}}); err != nil {
			t.Fatalf("AppendBatch: %v", err)
		}
		live[k] = v
	}
	for i := 0; i < 200; i++ {
		put(i)
	}
	snap := func() {
		// Stream the model map as the "live map": the test's analog of
		// the server's RangePage scan.
		if err := l.Snapshot(func(emit func(rec Record) error) error {
			for k, v := range live {
				if err := emit(Record{Key: k, Val: v}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
	}
	snap()
	if st := l.Stats(); st.Snapshots != 1 || st.SnapshotPairs != 64 {
		t.Fatalf("snapshot stats: %+v", st)
	}
	segs, snaps, _ := scanDir(Options{Dir: dir})
	if len(snaps) != 1 {
		t.Fatalf("want 1 checkpoint, got %d", len(snaps))
	}
	if len(segs) != 1 || segs[0] != snaps[0] {
		t.Fatalf("pruning left segments %v for checkpoint %v", segs, snaps)
	}
	// Writes after the checkpoint, plus a second checkpoint cycle.
	for i := 200; i < 320; i++ {
		put(i)
	}
	snap()
	for i := 320; i < 360; i++ {
		put(i)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := testOpen(t, dir, Options{})
	defer l2.Close()
	if rec.SnapshotSeq() == 0 {
		t.Fatal("recovery found no checkpoint")
	}
	got := replayAll(t, rec)
	if len(got) != len(live) {
		t.Fatalf("recovered %d keys, want %d", len(got), len(live))
	}
	for k, v := range live {
		if got[k] != v {
			t.Fatalf("key %q: got %q want %q", k, got[k], v)
		}
	}
	if st := l2.Stats(); st.ReplaySnapPairs == 0 {
		t.Fatal("no snapshot pairs counted during replay")
	}
}

func TestInvalidSnapshotSkipped(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{Policy: SyncNever})
	want := map[string]string{}
	for i := 0; i < 30; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		if err := l.AppendBatch([]Record{{Key: k, Val: v}}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := l.Snapshot(func(emit func(rec Record) error) error {
		for k, v := range want {
			if err := emit(Record{Key: k, Val: v}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 40; i++ {
		k, v := fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i)
		if err := l.AppendBatch([]Record{{Key: k, Val: v}}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the checkpoint (flip a byte mid-file). Recovery must skip
	// it; without an older checkpoint the full segment chain would be
	// needed — but segments < snapSeq were pruned, so Open warns about
	// the lost prefix and replays what remains.
	_, snaps, _ := scanDir(Options{Dir: dir})
	if len(snaps) != 1 {
		t.Fatalf("want 1 checkpoint, got %d", len(snaps))
	}
	p := filepath.Join(dir, ckptName(snaps[0]))
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}

	var warned bool
	l2, rec, err := Open(Options{Dir: dir, Logf: func(f string, a ...any) {
		t.Logf(f, a...)
		if strings.Contains(f, "invalid snapshot") {
			warned = true
		}
	}})
	if err != nil {
		t.Fatalf("Open after corruption: %v", err)
	}
	defer l2.Close()
	if !warned {
		t.Fatal("no invalid-snapshot warning")
	}
	if rec.SnapshotSeq() != 0 {
		t.Fatal("corrupt checkpoint was not skipped")
	}
	got := replayAll(t, rec)
	// Only the post-checkpoint writes survive (the pre-checkpoint
	// segments were legitimately pruned); they must replay cleanly.
	for i := 30; i < 40; i++ {
		k := fmt.Sprintf("k%02d", i)
		if got[k] != want[k] {
			t.Fatalf("post-checkpoint key %q: got %q want %q", k, got[k], want[k])
		}
	}
}

func TestSyncIntervalAndNeverPolicies(t *testing.T) {
	for _, pol := range []Policy{SyncInterval, SyncNever} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := testOpen(t, dir, Options{Policy: pol, SyncEvery: 5 * time.Millisecond})
			for i := 0; i < 20; i++ {
				if err := l.AppendBatch([]Record{{Key: fmt.Sprintf("k%d", i), Val: "v"}}); err != nil {
					t.Fatal(err)
				}
			}
			if pol == SyncInterval {
				deadline := time.Now().Add(2 * time.Second)
				for l.Stats().Syncs == 0 && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if l.Stats().Syncs == 0 {
					t.Fatal("interval policy never fsynced")
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			l2, rec := testOpen(t, dir, Options{})
			defer l2.Close()
			if got := replayAll(t, rec); len(got) != 20 {
				t.Fatalf("replayed %d keys, want 20 (clean Close syncs all policies)", len(got))
			}
		})
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := testOpen(t, t.TempDir(), Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendBatch([]Record{{Key: "k", Val: "v"}}); err != ErrClosed {
		t.Fatalf("append after close: got %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": SyncAlways, "interval": SyncInterval, "never": SyncNever} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Fatalf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("ParsePolicy accepted junk")
	}
}

// TestStatsTakesNoLock pins that a stats read never queues behind the
// log's mutex, which AppendBatch holds across an fsync: the STATS reply
// and /statsz call Stats once per wal value.
func TestStatsTakesNoLock(t *testing.T) {
	l, _ := testOpen(t, t.TempDir(), Options{})
	defer l.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	done := make(chan Stats, 1)
	go func() { done <- l.Stats() }()
	select {
	case st := <-done:
		if st.Seq != l.seq.Load() || st.Seq == 0 {
			t.Fatalf("Stats().Seq = %d, want the active segment %d", st.Seq, l.seq.Load())
		}
	case <-time.After(time.Second):
		t.Fatal("Stats blocked on the log's mutex")
	}
}

// TestZeroFillBounds pins the zero fill's footprint: under fsync=always
// the active segment is zero-filled ahead of its last frame but never
// more than zeroStep past it, and a sealed segment, like a cleanly
// closed log's, ends exactly at its last frame.
func TestZeroFillBounds(t *testing.T) {
	dir := t.TempDir()
	l, _ := testOpen(t, dir, Options{Policy: SyncAlways, SegmentBytes: 3 * zeroStep / 2})
	val := strings.Repeat("z", 4000)
	padded := false
	for i := 0; i < 1000; i++ {
		if err := l.AppendBatch([]Record{{Key: fmt.Sprintf("k%04d", i), Val: val}}); err != nil {
			t.Fatal(err)
		}
		st, err := l.f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if pad := st.Size() - l.size; pad < 0 || pad > zeroStep {
			t.Fatalf("append %d: active segment is %d bytes past its last frame", i, pad)
		} else if pad > 0 {
			padded = true
		}
	}
	if !padded {
		t.Fatal("the active segment was never zero-filled")
	}
	if l.Stats().Rotations == 0 {
		t.Fatal("no segment was sealed")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := scanDir(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, sq := range segs {
		b, err := os.ReadFile(filepath.Join(dir, segName(sq)))
		if err != nil {
			t.Fatal(err)
		}
		sc := newFrameScanner(bytes.NewReader(b[fileHdrLen:]), fileHdrLen)
		for {
			if _, _, err := sc.next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%s: %v", segName(sq), err)
			}
		}
		if sc.off != int64(len(b)) {
			t.Errorf("%s: %d bytes, frames end at %d", segName(sq), len(b), sc.off)
		}
	}
}

// TestSyncFaultIsSticky injects a failing fsync and a failing zero fill
// into a cut: SyncBatch reports it, and the log refuses every later
// append, so no frame can land behind the failed one.
func TestSyncFaultIsSticky(t *testing.T) {
	for _, op := range []string{"sync", "fill"} {
		t.Run(op, func(t *testing.T) {
			l, _ := testOpen(t, t.TempDir(), Options{Policy: SyncAlways})
			injected := errors.New("injected " + op + " error")
			SetFault(l, func(o string) error {
				if o == op {
					return injected
				}
				return nil
			})
			// A frame that leaves less than zeroLow of the first fill makes
			// this cut's sync fill ahead.
			big := strings.Repeat("v", zeroStep-zeroLow/2)
			if err := l.WriteBatch([]Record{{Key: "k", Val: big}}); err != nil {
				t.Fatalf("WriteBatch: %v", err)
			}
			err := l.SyncBatch()
			l.EndBatch()
			if err != injected {
				t.Fatalf("SyncBatch = %v, want the injected error", err)
			}
			if err := l.AppendBatch([]Record{{Key: "k2", Val: "v"}}); err != injected {
				t.Fatalf("append after a failed %s = %v, want the sticky error", op, err)
			}
			if err := l.WriteBatch([]Record{{Key: "k3", Val: "v"}}); err != injected {
				t.Fatalf("WriteBatch after a failed %s = %v, want the sticky error", op, err)
			}
			// A refused WriteBatch leaves no cut open: a checkpoint does
			// not block on it, and fails on the sticky error instead.
			if err := l.Snapshot(func(func(Record) error) error { return nil }); err != injected {
				t.Fatalf("Snapshot after a failed %s = %v, want the sticky error", op, err)
			}
			if st := l.Stats(); st.Batches != 1 || st.SyncErrors == 0 {
				t.Fatalf("stats after a failed %s: %+v", op, st)
			}
			if err := l.Close(); err != injected {
				t.Fatalf("Close = %v, want the sticky error", err)
			}
		})
	}
}

// TestSnapshotWaitsForOpenCut is the rotation rule at the log: a
// checkpoint started while a cut is open rotates only after EndBatch.
func TestSnapshotWaitsForOpenCut(t *testing.T) {
	l, _ := testOpen(t, t.TempDir(), Options{Policy: SyncAlways})
	defer l.Close()
	if err := l.WriteBatch([]Record{{Key: "k", Val: "v"}}); err != nil {
		t.Fatal(err)
	}
	seq := l.Seq()
	done := make(chan error, 1)
	go func() { done <- l.Snapshot(func(func(Record) error) error { return nil }) }()
	if err := l.SyncBatch(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		t.Fatalf("Snapshot finished (%v) across an open cut", err)
	case <-time.After(50 * time.Millisecond):
	}
	if l.Seq() != seq {
		t.Fatal("Snapshot rotated across an open cut")
	}
	l.EndBatch()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if l.Seq() == seq || l.SnapSeq() != l.Seq() {
		t.Fatalf("after EndBatch: seq %d, snapshot seq %d", l.Seq(), l.SnapSeq())
	}
}
