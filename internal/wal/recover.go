package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Open opens (or creates) the log in opt.Dir and plans recovery. It
// returns the log ready for appends plus a Recovery whose Replay
// streams the persisted state in commit order: the newest valid
// checkpoint's pairs, then every batch from the segments at or after
// that checkpoint's sequence number.
//
// Tail damage is expected, not fatal: a torn or corrupt frame at the
// end of the NEWEST segment is the signature of a crash mid-write
// (that batch was never acked under fsync=always), so Open truncates
// the file back to the last good frame boundary, warns, and carries
// on. The same damage in an older segment is genuine corruption —
// sealed segments were fsynced — and Replay fails on it. An invalid
// checkpoint (torn by a crash mid-rename window, or bit-rotted) is
// skipped in favor of the next older one; the segments it would have
// retired are still on disk because pruning happens only after a
// checkpoint is durable.
func Open(opt Options) (*Log, *Recovery, error) {
	if opt.Dir == "" {
		return nil, nil, errors.New("wal: Options.Dir required")
	}
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 64 << 20
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 100 * time.Millisecond
	}
	if opt.Logf == nil {
		opt.Logf = defaultLogf
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.Open(opt.Dir)
	if err != nil {
		return nil, nil, err
	}

	l := &Log{opt: opt, dir: dir}

	segSeqs, snapSeqs, err := scanDir(opt)
	if err != nil {
		dir.Close()
		return nil, nil, err
	}

	// Newest checkpoint that fully validates wins; invalid ones are
	// skipped with a warning (their covering segments still exist).
	var snapSeq uint64
	var snapPath string
	for i := len(snapSeqs) - 1; i >= 0; i-- {
		p := filepath.Join(opt.Dir, ckptName(snapSeqs[i]))
		if verr := validateSnapshot(p, snapSeqs[i]); verr != nil {
			opt.Logf("wal: skipping invalid snapshot %s: %v", filepath.Base(p), verr)
			continue
		}
		snapSeq, snapPath = snapSeqs[i], p
		break
	}

	// Segments at or after the checkpoint replay over it, in order.
	var replay []uint64
	for _, sq := range segSeqs {
		if sq >= snapSeq {
			replay = append(replay, sq)
		}
	}
	for i := 1; i < len(replay); i++ {
		if replay[i] != replay[i-1]+1 {
			dir.Close()
			return nil, nil, fmt.Errorf("wal: segment gap: %s missing",
				segName(replay[i-1]+1))
		}
	}
	if snapPath != "" && len(replay) > 0 && replay[0] != snapSeq {
		dir.Close()
		return nil, nil, fmt.Errorf("wal: snapshot %s has no paired segment (oldest remaining is %s)",
			filepath.Base(snapPath), segName(replay[0]))
	}
	if snapPath == "" && len(segSeqs) > 0 && segSeqs[0] != 1 {
		// Segments were pruned behind a checkpoint that is now gone or
		// invalid. Replaying what remains silently drops the retired
		// prefix; surface it loudly but let the operator proceed.
		opt.Logf("wal: no valid snapshot but segments start at %s: state before it is lost",
			segName(segSeqs[0]))
	}

	// Torn-tail repair on the newest segment only.
	if len(replay) > 0 {
		last := replay[len(replay)-1]
		torn, terr := repairTail(filepath.Join(opt.Dir, segName(last)), last, opt.Logf)
		if terr != nil {
			dir.Close()
			return nil, nil, terr
		}
		if torn {
			l.tornTails.Add(1)
		}
	}

	nextSeq := uint64(1)
	if n := len(segSeqs); n > 0 && segSeqs[n-1]+1 > nextSeq {
		nextSeq = segSeqs[n-1] + 1
	}
	if snapSeq+1 > nextSeq {
		nextSeq = snapSeq + 1
	}
	fill := l.firstFill()
	f, err := createSegment(opt.Dir, nextSeq, fill)
	if err != nil {
		dir.Close()
		return nil, nil, err
	}
	if err := dir.Sync(); err != nil {
		f.Close()
		dir.Close()
		return nil, nil, err
	}

	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.seq.Store(nextSeq)
	l.size = fileHdrLen
	l.filled = max(fileHdrLen, fill)
	l.snapSeq.Store(snapSeq)
	if opt.Policy == SyncInterval {
		l.stopSync = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	rec := &Recovery{log: l, snapPath: snapPath, snapSeq: snapSeq, segs: replay}
	return l, rec, nil
}

// scanDir lists segment and checkpoint sequence numbers (ascending)
// and removes leftover temp files from interrupted checkpoint writes
// (never renamed, so never authoritative).
func scanDir(opt Options) (segSeqs, snapSeqs []uint64, err error) {
	entries, err := os.ReadDir(opt.Dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(opt.Dir, name))
			continue
		}
		if sq, ok := parseSeq(name, "wal-", ".log"); ok {
			segSeqs = append(segSeqs, sq)
		} else if sq, ok := parseSeq(name, "snap-", ".ckpt"); ok {
			snapSeqs = append(snapSeqs, sq)
		}
	}
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] < snapSeqs[j] })
	return segSeqs, snapSeqs, nil
}

// checkHeader reads and verifies a file's magic + sequence header.
func checkHeader(f *os.File, magic string, seq uint64) error {
	var hdr [fileHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return fmt.Errorf("%w: short file header", errTorn)
	}
	if string(hdr[:8]) != magic {
		return fmt.Errorf("%w: bad magic", errTorn)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != seq {
		return fmt.Errorf("%w: header seq %d != filename seq %d", errTorn, got, seq)
	}
	return nil
}

// repairTail scans the newest segment and truncates everything after
// the last good frame boundary. A file whose header itself is torn is
// reset to a valid empty segment (the header write raced the crash).
// An all-zero remainder is the writer's zero-fill, not damage: it is
// cut off without a warning, so the segment, sealed from now on, ends
// at its last frame. Returns whether a torn tail was found and repaired.
func repairTail(path string, seq uint64, logf func(string, ...any)) (bool, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return false, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false, err
	}

	good := int64(fileHdrLen)
	herr := checkHeader(f, segMagic, seq)
	if herr != nil && !IsTorn(herr) {
		return false, herr
	}
	var scanErr error
	if herr == nil {
		sc := newFrameScanner(f, fileHdrLen)
		for {
			_, _, err := sc.next()
			if err == io.EOF {
				if sc.off == st.Size() {
					return false, nil // clean tail, nothing to repair
				}
				return false, truncateSync(f, sc.off) // clean zero tail
			}
			if err != nil {
				scanErr = err
				break
			}
			good = sc.off
		}
		if !IsTorn(scanErr) {
			return false, scanErr
		}
	} else {
		scanErr = herr
		good = 0
	}

	logf("wal: %s: torn tail at offset %d (%v): truncating %d bytes",
		filepath.Base(path), good, scanErr, st.Size()-good)
	if good == 0 {
		// Rewrite the header so the file stays a valid (empty) segment
		// and the sequence chain keeps no gaps.
		var hdr [fileHdrLen]byte
		copy(hdr[:], segMagic)
		binary.LittleEndian.PutUint64(hdr[8:], seq)
		if _, err := f.WriteAt(hdr[:], 0); err != nil {
			return false, err
		}
		good = fileHdrLen
	}
	return true, truncateSync(f, good)
}

// truncateSync cuts f to size bytes and fsyncs it.
func truncateSync(f *os.File, size int64) error {
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// validateSnapshot fully scans a checkpoint: header, every frame's
// CRC, record shape (pairs and expire records — a checkpoint carries
// the live kv state plus the armed TTL deadlines, never deletes) and
// the zero-record terminator frame that proves the write completed.
func validateSnapshot(path string, seq uint64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := checkHeader(f, ckptMagic, seq); err != nil {
		return err
	}
	sc := newFrameScanner(f, fileHdrLen)
	term := false
	for {
		recs, _, err := sc.next()
		if err == io.EOF {
			if !term {
				return fmt.Errorf("%w: missing terminator frame", errTorn)
			}
			return nil
		}
		if err != nil {
			return err
		}
		if term {
			return fmt.Errorf("%w: frames after terminator", errTorn)
		}
		if len(recs) == 0 {
			term = true
			continue
		}
		for i := range recs {
			if recs[i].Del {
				return fmt.Errorf("%w: delete record in snapshot", errTorn)
			}
		}
	}
}

// Recovery is the replay plan computed by Open. Replay must run (once)
// before the log's owner serves traffic.
type Recovery struct {
	log      *Log
	snapPath string
	snapSeq  uint64
	segs     []uint64
	used     bool
}

// SnapshotSeq returns the sequence of the checkpoint being restored
// (0 if recovery starts from an empty/WAL-only state).
func (r *Recovery) SnapshotSeq() uint64 { return r.snapSeq }

// Replay streams the recovered state in commit order, calling apply
// once per frame: first the checkpoint's pairs (as set-record chunks),
// then every logged batch at or after the checkpoint. Records may
// overwrite earlier ones — the caller applies them in order and
// last-writer-wins yields the pre-crash state. The record slice is
// reused between calls; its strings are fresh.
func (r *Recovery) Replay(apply func(recs []Record) error) error {
	if r.used {
		return errors.New("wal: recovery already replayed")
	}
	r.used = true
	if r.snapPath != "" {
		if err := r.replayFile(r.snapPath, ckptMagic, r.snapSeq, true, apply); err != nil {
			return fmt.Errorf("wal: replay %s: %w", filepath.Base(r.snapPath), err)
		}
	}
	for _, sq := range r.segs {
		p := filepath.Join(r.log.opt.Dir, segName(sq))
		if err := r.replayFile(p, segMagic, sq, false, apply); err != nil {
			return fmt.Errorf("wal: replay %s: %w", segName(sq), err)
		}
	}
	return nil
}

func (r *Recovery) replayFile(path, magic string, seq uint64, snapshot bool,
	apply func(recs []Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := checkHeader(f, magic, seq); err != nil {
		return err
	}
	sc := newFrameScanner(f, fileHdrLen)
	for {
		recs, _, err := sc.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			// Segments were tail-repaired in Open and sealed ones were
			// fsynced, so mid-replay damage is real corruption.
			return err
		}
		if len(recs) == 0 {
			continue // snapshot terminator (or a no-op frame)
		}
		if snapshot {
			r.log.replaySnapPairs.Add(int64(len(recs)))
		} else {
			r.log.replayBatches.Add(1)
			r.log.replayRecords.Add(int64(len(recs)))
			r.log.replayBatchLen.Record(int64(len(recs)))
		}
		if err := apply(recs); err != nil {
			return err
		}
	}
}
