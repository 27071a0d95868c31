package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"

	"repro/internal/obs"
)

// snapChunk is how many pairs ride one checkpoint frame. Large enough
// to amortize framing, small enough that the encode scratch stays
// modest.
const snapChunk = 512

// Snapshot writes a checkpoint of the live map and prunes the log
// behind it. stream must call emit once per live record — the kv pairs
// (set records) and then the armed TTL deadlines (expire records;
// deletes are invalid in a checkpoint). It runs outside the log's
// append lock, so appends proceed concurrently (the server streams via
// cursor-paged range reads — the scan is fuzzy).
//
// Sequence: rotate to a fresh segment whose seq S becomes the
// checkpoint's identity, scan the map into snap-<S>.ckpt.tmp, fsync,
// rename into place, fsync the directory, then delete segments and
// checkpoints older than S. The fuzzy scan is safe because the
// rotation waits for an open cut (WriteBatch → EndBatch): every record
// in a segment < S had reached the map before the scan began, so the
// scan saw it (or a record >= S overwrote it, which replays after it),
// and checkpoint + replay of segments >= S reproduces the log's full
// prefix.
//
// The terminator frame (zero records) is the completion witness: a
// checkpoint missing it — crash mid-write, even though renames are
// atomic the fsync may not have landed — is skipped at recovery.
func (l *Log) Snapshot(stream func(emit func(rec Record) error) error) error {
	l.snapMu.Lock()
	defer l.snapMu.Unlock()

	cut, err := l.rotateForSnapshot()
	if err != nil {
		return err
	}

	t0 := obs.Now()
	final := filepath.Join(l.opt.Dir, ckptName(cut))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op once renamed

	bw := bufio.NewWriterSize(f, 1<<18)
	var hdr [fileHdrLen]byte
	copy(hdr[:], ckptMagic)
	binary.LittleEndian.PutUint64(hdr[8:], cut)
	if _, err := bw.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}

	var pairs int64
	var enc []byte
	chunk := make([]Record, 0, snapChunk)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		enc = appendFrame(enc[:0], chunk)
		pairs += int64(len(chunk))
		chunk = chunk[:0]
		_, err := bw.Write(enc)
		return err
	}
	emit := func(rec Record) error {
		if rec.Del {
			return errors.New("wal: delete record in snapshot stream")
		}
		chunk = append(chunk, rec)
		if len(chunk) == snapChunk {
			return flush()
		}
		return nil
	}
	if err := stream(emit); err != nil {
		f.Close()
		return err
	}
	if err := flush(); err != nil {
		f.Close()
		return err
	}
	enc = appendFrame(enc[:0], nil) // terminator: the write completed
	if _, err := bw.Write(enc); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	st, _ := f.Stat()
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := l.dir.Sync(); err != nil {
		return err
	}

	l.snapSeq.Store(cut)
	// Appends racing the scan land in segment >= cut and stay counted:
	// reset by the pre-scan baseline rather than to zero.
	l.sinceSnap.Store(l.segBytesSince(cut))
	l.snapshots.Add(1)
	l.snapPairs.Add(pairs)
	if st != nil {
		l.snapBytes.Add(st.Size())
	}
	l.lastSnapNs.Store(obs.Since(t0))
	l.prune(cut)
	return nil
}

// rotateForSnapshot seals the active segment for a checkpoint and
// returns the new segment's seq. It takes cutMu first, so it never runs
// while a cut's frame is written and its batch not yet applied.
func (l *Log) rotateForSnapshot() (uint64, error) {
	l.cutMu.Lock()
	defer l.cutMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	if err := l.rotateLocked(); err != nil {
		return 0, l.fail(err)
	}
	return l.seq.Load(), nil
}

// segBytesSince approximates the log bytes appended at or after the
// checkpoint cut: only the active segment can hold them right after a
// snapshot (everything older is pruned).
func (l *Log) segBytesSince(cut uint64) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq.Load() == cut {
		return l.size - fileHdrLen
	}
	return 0
}

// prune removes segments and checkpoints made obsolete by the durable
// checkpoint at cut. Failures are warnings: stale files cost disk, not
// correctness (recovery picks the newest valid checkpoint).
func (l *Log) prune(cut uint64) {
	entries, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		l.opt.Logf("wal: prune: %v", err)
		return
	}
	for _, e := range entries {
		name := e.Name()
		stale := false
		if sq, ok := parseSeq(name, "wal-", ".log"); ok {
			stale = sq < cut
		} else if sq, ok := parseSeq(name, "snap-", ".ckpt"); ok {
			stale = sq < cut
		}
		if !stale {
			continue
		}
		if err := os.Remove(filepath.Join(l.opt.Dir, name)); err != nil {
			l.opt.Logf("wal: prune %s: %v", name, err)
		}
	}
}
