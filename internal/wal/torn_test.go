package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestTornTailEveryOffset is the torn-write property test: write N
// batches, then truncate the segment at every byte offset inside the
// last frame and separately flip every byte of it. Recovery must yield
// exactly the prefix of fully-committed batches — never an error,
// never a phantom or partial batch — and warn exactly when it counts a
// torn tail. The padded variants do the same to the segment as a crash
// leaves it under fsync=always: zero-filled past its last frame, where
// a cut anywhere in the zeros is a clean end and a non-zero byte is
// torn.
func TestTornTailEveryOffset(t *testing.T) {
	const nBatches = 8

	// Build the reference segment once, copying it before Close as well:
	// the copy still carries the zero fill (SegmentBytes caps it).
	const padTo = 640
	srcDir := t.TempDir()
	l, _ := testOpen(t, srcDir, Options{Policy: SyncAlways, SegmentBytes: padTo})
	batches := make([][]Record, nBatches)
	for i := range batches {
		batches[i] = []Record{
			{Key: fmt.Sprintf("a%02d", i), Val: fmt.Sprintf("set-%d", i)},
			{Key: fmt.Sprintf("b%02d", i%3), Val: fmt.Sprintf("overwrite-%d", i)},
			{Key: fmt.Sprintf("a%02d", (i+nBatches-1)%nBatches), Del: true},
		}
		if err := l.AppendBatch(batches[i]); err != nil {
			t.Fatal(err)
		}
	}
	segs, _, err := scanDir(Options{Dir: srcDir})
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly 1 segment, got %v (%v)", segs, err)
	}
	padded, err := os.ReadFile(filepath.Join(srcDir, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(srcDir, segName(segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	if len(padded) != padTo || !bytes.Equal(padded[:len(seg)], seg) ||
		!bytes.Equal(padded[len(seg):], make([]byte, padTo-len(seg))) {
		t.Fatalf("live segment is not the closed one (%d bytes) zero-filled to %d: %d bytes",
			len(seg), padTo, len(padded))
	}

	// Frame boundaries, via the same scanner recovery uses.
	offsets := []int64{fileHdrLen}
	sc := newFrameScanner(bytes.NewReader(seg[fileHdrLen:]), fileHdrLen)
	for {
		_, _, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reference segment does not scan: %v", err)
		}
		offsets = append(offsets, sc.off)
	}
	if len(offsets) != nBatches+1 || offsets[nBatches] != int64(len(seg)) {
		t.Fatalf("boundary scan: %v vs file size %d", offsets, len(seg))
	}

	// prefix(j) = model state after batches[0:j].
	prefix := func(j int) map[string]string {
		m := map[string]string{}
		for _, b := range batches[:j] {
			for _, r := range b {
				if r.Del {
					delete(m, r.Key)
				} else {
					m[r.Key] = r.Val
				}
			}
		}
		return m
	}

	// recover writes the mutated segment into a fresh dir, opens it and
	// replays; it fails the test on any error or non-prefix state.
	check := func(t *testing.T, mutated []byte, wantBatches int, wantTorn bool) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(segs[0])), mutated, 0o644); err != nil {
			t.Fatal(err)
		}
		// Recovery does not depend on the policy; SyncNever spares each
		// Open the new segment's zero fill.
		warned := false
		l, rec, err := Open(Options{Dir: dir, Policy: SyncNever, Logf: func(string, ...any) { warned = true }})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer l.Close()
		if torn := l.Stats().TornTails > 0; torn != wantTorn || warned != wantTorn {
			t.Fatalf("torn=%v warned=%v, want %v", torn, warned, wantTorn)
		}
		got := map[string]string{}
		if err := rec.Replay(func(recs []Record) error {
			for _, r := range recs {
				if r.Del {
					delete(got, r.Key)
				} else {
					got[r.Key] = r.Val
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		want := prefix(wantBatches)
		if len(got) != len(want) {
			t.Fatalf("recovered %d keys, want %d (prefix %d)", len(got), len(want), wantBatches)
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %q: got %q want %q (prefix %d)", k, got[k], v, wantBatches)
			}
		}
	}

	t.Run("truncate", func(t *testing.T) {
		// Every offset from the start of the last frame to one byte
		// short of the end loses exactly the last batch; boundary cuts
		// lose exactly the frames past them.
		lastStart := offsets[nBatches-1]
		for cut := lastStart; cut < int64(len(seg)); cut++ {
			check(t, seg[:cut], nBatches-1, cut != lastStart)
		}
		// Cuts at earlier frame boundaries keep exactly that prefix.
		for j, off := range offsets[:nBatches] {
			check(t, seg[:off], j, false)
		}
		// An untouched file keeps everything.
		check(t, seg, nBatches, false)
	})

	t.Run("corrupt", func(t *testing.T) {
		// Flipping any byte of the last frame invalidates exactly the
		// last batch: header, CRC and payload corruption all stop the
		// scan at the previous boundary.
		for off := offsets[nBatches-1]; off < int64(len(seg)); off++ {
			mut := bytes.Clone(seg)
			mut[off] ^= 0xff
			check(t, mut, nBatches-1, true)
		}
	})

	t.Run("corrupt-mid-log", func(t *testing.T) {
		// Damage in an earlier frame of the newest segment truncates
		// from that frame on: the recovered state is still exactly a
		// prefix, never a resync past the damage.
		mid := offsets[3] + 5
		mut := bytes.Clone(seg)
		mut[mid] ^= 0xff
		check(t, mut, 3, true)
	})

	t.Run("padded-truncate", func(t *testing.T) {
		// Inside the last frame a cut loses it, as without the fill; from
		// the frame's end on, every cut leaves an all-zero remainder,
		// which is a clean end keeping every batch.
		lastStart, end := offsets[nBatches-1], offsets[nBatches]
		for cut := lastStart; cut <= int64(len(padded)); cut++ {
			if cut < end {
				check(t, padded[:cut], nBatches-1, cut != lastStart)
			} else {
				check(t, padded[:cut], nBatches, false)
			}
		}
	})

	t.Run("padded-corrupt", func(t *testing.T) {
		// A flipped byte in the last frame loses it; one in the zero fill
		// is torn (a non-zero header, or non-zero bytes after a zero
		// header) but keeps every frame before it.
		end := offsets[nBatches]
		for off := offsets[nBatches-1]; off < int64(len(padded)); off++ {
			mut := bytes.Clone(padded)
			mut[off] ^= 0xff
			want := nBatches
			if off < end {
				want = nBatches - 1
			}
			check(t, mut, want, true)
		}
	})

	t.Run("torn-header", func(t *testing.T) {
		// A file cut inside its own 16-byte header is reset to an empty
		// segment rather than treated as fatal.
		check(t, seg[:fileHdrLen/2], 0, true)
	})
}
