// Package wal implements the durability layer: a length-prefixed,
// CRC32C-framed append-only log of committed batches, plus streamed
// map checkpoints that let the log be truncated behind them.
//
// The write-side contract mirrors the server's group-commit design:
// one frame per coalescer cut, encoding the cut's mutations, with at
// most one fsync per cut (policy SyncAlways). The batch economics that
// amortize tree work across a combined batch amortize the disk write
// the same way — durability costs one sequential write + one fsync per
// window, not per op. A cut's commit comes in three calls so the fsync
// can overlap the apply: WriteBatch writes the frame, SyncBatch makes it
// durable per policy, EndBatch says the batch has reached the live map.
// AppendBatch is the three in a row.
//
// Segments are zero-filled ahead of the writer (zeroStep), so the
// per-cut fsync flushes data into blocks the file already owns instead
// of committing a size change. Sealing and Close truncate a segment to
// its last frame; recovery reads an all-zero remainder after the last
// good frame as a clean end.
//
// Correctness leans on one ordering rule: Snapshot rotates to a fresh
// segment, then scans the live map, so every record in older segments
// must already be in the map when the rotation happens. WriteBatch
// opens a cut that only EndBatch closes, and Snapshot's rotation waits
// for an open cut — the caller calls EndBatch once the batch is
// applied. Then the checkpoint plus replay of segments >= its seq
// converges to the pre-crash state by per-key last-writer-wins.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Policy selects when appended frames are fsynced.
type Policy int

const (
	// SyncAlways fsyncs once per cut (SyncBatch, or AppendBatch): an
	// acked write is on disk. The group-commit default.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery):
	// bounded data loss, near-in-memory latency.
	SyncInterval
	// SyncNever leaves flushing to the OS page cache (and to segment
	// seals, snapshots and Close, which always sync).
	SyncNever
)

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses the -fsync flag values always|interval|never.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or never)", s)
}

// Options configures Open.
type Options struct {
	// Dir is the data directory; created if absent. Required.
	Dir string
	// Policy is the fsync policy (default SyncAlways).
	Policy Policy
	// SyncEvery is the SyncInterval ticker period (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once its frames grow past
	// this size (default 64 MiB).
	SegmentBytes int64
	// Logf receives recovery warnings (torn tails, skipped snapshots)
	// and background-sync errors. Defaults to the standard logger.
	Logf func(format string, args ...any)
}

// File naming: segments are wal-<seq>.log, checkpoints snap-<seq>.ckpt,
// both carrying the 16-hex-digit sequence number so lexical order is
// numeric order. A checkpoint with seq S captures the map state that
// includes every segment < S; recovery is "newest valid snapshot +
// replay segments >= its seq in order". Both file kinds start with an
// 8-byte magic and the u64le seq, so a renamed file can't be replayed
// under the wrong identity.
const (
	segMagic   = "PWSWAL1\n"
	ckptMagic  = "PWSCKPT\n"
	fileHdrLen = 16
)

func segName(seq uint64) string  { return fmt.Sprintf("wal-%016x.log", seq) }
func ckptName(seq uint64) string { return fmt.Sprintf("snap-%016x.ckpt", seq) }

// parseSeq extracts the sequence number from a segment or checkpoint
// file name with the given prefix/suffix.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	if len(mid) != 16 {
		return 0, false
	}
	var seq uint64
	for i := 0; i < len(mid); i++ {
		c := mid[i]
		switch {
		case c >= '0' && c <= '9':
			seq = seq<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			seq = seq<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return seq, true
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("wal: closed")

// zeroStep is how far past its last frame a segment is zero-filled.
// The fill is one size change per step, where an append into fresh
// space is one per frame; an ext4/virtio fsync of a 20 KB frame measured
// 114 µs at p50 as an append and 55–65 µs into pre-zeroed blocks.
const zeroStep = 1 << 20

// zeroLow is the fill left ahead of the last frame below which the next
// sync fills again: above a frame's usual size, so frames land in filled
// blocks, and small, so the fill on disk stays near zeroStep/2 on
// average.
const zeroLow = 64 << 10

// zeroBuf is the source of the zero-fill writes.
var zeroBuf [64 << 10]byte

// Log is an open write-ahead log. WriteBatch/SyncBatch/EndBatch and
// AppendBatch are for one writer at a time (the server's single commit
// loop); Snapshot and the background interval syncer may run
// concurrently with them.
type Log struct {
	opt Options
	dir *os.File

	// cutMu is held from WriteBatch to EndBatch, and by Snapshot around
	// its rotation: a checkpoint never starts between a frame's write and
	// its batch reaching the map.
	cutMu sync.Mutex

	mu     sync.Mutex
	f      *os.File // active segment
	w      *bufio.Writer
	size   int64  // active segment's frame bytes, header included
	filled int64  // active segment's file length once flushed: >= size
	dirty  bool   // bytes written since the last fsync
	enc    []byte // frame scratch, reused across appends
	err    error  // first unrecoverable write error, sticky

	// fault is the fail-stop tests' seam: when set, it runs before each
	// zero-fill and each fsync ("fill", "sync") of the active segment,
	// and its error stands in for that call's.
	fault func(op string) error

	closed atomic.Bool
	// seq is the active segment's sequence number: written under mu,
	// read without it (Seq, Stats).
	seq atomic.Uint64

	snapMu    sync.Mutex // serializes Snapshot calls
	snapSeq   atomic.Uint64
	sinceSnap atomic.Int64

	stopSync chan struct{}
	syncDone chan struct{}

	batches    atomic.Int64
	records    atomic.Int64
	bytes      atomic.Int64
	syncs      atomic.Int64
	syncErrs   atomic.Int64
	rotations  atomic.Int64
	snapshots  atomic.Int64
	snapPairs  atomic.Int64
	snapBytes  atomic.Int64
	lastSnapNs atomic.Int64

	tornTails       atomic.Int64
	replayBatches   atomic.Int64
	replayRecords   atomic.Int64
	replaySnapPairs atomic.Int64

	fsyncNs        obs.Histogram
	replayBatchLen obs.Histogram
}

// AppendBatch encodes recs as one frame, writes it to the active
// segment and — under SyncAlways — fsyncs before returning. Key/value
// bytes are copied during encoding, so arena-backed strings are safe
// to pass. Empty batches are dropped. An error means the batch may
// not be durable; under SyncAlways the caller must not ack it. The cut
// opens and closes inside the call, so a caller that checkpoints a map
// applies recs to it first; WriteBatch, SyncBatch and EndBatch let the
// apply overlap the sync instead.
func (l *Log) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if err := l.WriteBatch(recs); err != nil {
		return err
	}
	defer l.EndBatch()
	return l.SyncBatch()
}

// WriteBatch encodes recs as one frame and writes it to the active
// segment without syncing it, and opens a cut: Snapshot's rotation
// waits until EndBatch. Key/value bytes are copied, so the caller may
// recycle them on return. An empty batch writes no frame but still opens
// the cut. On error no cut is open.
func (l *Log) WriteBatch(recs []Record) error {
	l.cutMu.Lock()
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.writeLocked(recs)
	if err != nil {
		l.cutMu.Unlock()
	}
	return err
}

func (l *Log) writeLocked(recs []Record) error {
	if l.closed.Load() {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if len(recs) == 0 {
		return nil
	}
	l.enc = appendFrame(l.enc[:0], recs)
	if _, err := l.w.Write(l.enc); err != nil {
		return l.fail(err)
	}
	n := int64(len(l.enc))
	l.size += n
	l.sinceSnap.Add(n)
	l.batches.Add(1)
	l.records.Add(int64(len(recs)))
	l.bytes.Add(n)
	l.dirty = true
	return nil
}

// SyncBatch makes the open cut's frame durable as the policy says —
// under SyncAlways it flushes, zero-fills ahead and fsyncs — and seals
// a full segment (sealing always syncs). It may run while the cut's
// batch is being applied elsewhere: that is the overlap it exists for.
// An error is sticky; under SyncAlways the caller must not ack the cut.
func (l *Log) SyncBatch() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed.Load() {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	var err error
	switch {
	case l.size >= l.opt.SegmentBytes:
		err = l.rotateLocked()
	case l.opt.Policy == SyncAlways:
		err = l.syncLocked()
	}
	if err != nil {
		return l.fail(err)
	}
	return nil
}

// EndBatch closes the cut WriteBatch opened: the batch has reached the
// map, so a checkpoint's scan would see it. Called once per successful
// WriteBatch, after SyncBatch or its error.
func (l *Log) EndBatch() { l.cutMu.Unlock() }

// fail records the first unrecoverable write error; the log refuses
// further appends after one (a half-written frame would otherwise be
// followed by more frames behind a torn middle, which recovery treats
// as fatal — stopping at the first error keeps all damage in the tail).
func (l *Log) fail(err error) error {
	l.syncErrs.Add(1)
	if l.err == nil {
		l.err = err
	}
	return err
}

// inject runs the test seam for op, if one is set.
func (l *Log) inject(op string) error {
	if l.fault == nil {
		return nil
	}
	return l.fault(op)
}

// syncLocked flushes buffered frames, zero-fills ahead of them and
// fsyncs the active segment, recording the fsync latency. No-op when
// nothing was appended since the last sync.
func (l *Log) syncLocked() error {
	if !l.dirty {
		return nil
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.fillAhead(); err != nil {
		return err
	}
	t0 := obs.Now()
	if err := l.inject("sync"); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncNs.Record(obs.Since(t0))
	l.syncs.Add(1)
	l.dirty = false
	return nil
}

// fillAhead zero-fills the active segment to zeroStep past its last
// frame once less than zeroLow is left, never past SegmentBytes (the
// writer seals there). It runs after a flush, so every frame is in the
// file and the fill starts behind the last one; the fsync that follows
// makes the new length durable with the frame.
func (l *Log) fillAhead() error {
	from := max(l.filled, l.size)
	if from-l.size >= zeroLow {
		return nil
	}
	end := min(l.size+zeroStep, l.opt.SegmentBytes)
	if end <= from {
		return nil
	}
	if err := l.inject("fill"); err != nil {
		return err
	}
	if err := zeroFill(l.f, from, end); err != nil {
		return err
	}
	l.filled = end
	return nil
}

// firstFill is how far a new segment is zero-filled when it is created:
// the first step, so the first cuts of a segment skip the size change
// too. A SyncNever log syncs no cut, so it gets none.
func (l *Log) firstFill() int64 {
	if l.opt.Policy == SyncNever {
		return 0
	}
	return min(fileHdrLen+zeroStep, l.opt.SegmentBytes)
}

// zeroFill writes zeros to f over [from, to).
func zeroFill(f *os.File, from, to int64) error {
	for off := from; off < to; {
		n, err := f.WriteAt(zeroBuf[:min(int64(len(zeroBuf)), to-off)], off)
		off += int64(n)
		if err != nil {
			return err
		}
	}
	return nil
}

// trimLocked flushes buffered frames and cuts the zero-filled space off
// the active segment, so the file ends at its last frame.
func (l *Log) trimLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if l.filled > l.size {
		if err := l.f.Truncate(l.size); err != nil {
			return err
		}
	}
	l.filled = l.size
	return nil
}

// rotateLocked seals the active segment (flush + truncate to its last
// frame + fsync + close) and opens the next one. Sealing always syncs
// regardless of policy, so every frame in a sealed segment is durable,
// a sealed segment is exactly its frames, and a torn tail can only
// exist in the newest file.
func (l *Log) rotateLocked() error {
	if err := l.trimLocked(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.dirty = false
	fill := l.firstFill()
	f, err := createSegment(l.opt.Dir, l.seq.Add(1), fill)
	if err != nil {
		return err
	}
	if err := l.dir.Sync(); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w.Reset(f)
	l.size = fileHdrLen
	l.filled = max(fileHdrLen, fill)
	l.rotations.Add(1)
	return nil
}

// createSegment creates a fresh segment file with its header written,
// zero-filled up to fill bytes, and synced. The caller syncs the
// directory.
func createSegment(dir string, seq uint64, fill int64) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, segName(seq)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	var hdr [fileHdrLen]byte
	copy(hdr[:], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	if err := zeroFill(f, fileHdrLen, fill); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncLoop is the SyncInterval background ticker.
func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opt.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopSync:
			return
		case <-t.C:
			l.mu.Lock()
			if !l.closed.Load() && l.err == nil {
				if err := l.syncLocked(); err != nil {
					l.fail(err)
					l.opt.Logf("wal: interval fsync: %v", err)
				}
			}
			l.mu.Unlock()
		}
	}
}

// Close flushes, truncates the active segment to its last frame, fsyncs
// and closes the log. After a clean Close the entire log is durable
// regardless of policy. Concurrent Snapshot calls must have finished
// (the server stops its snapshotter first).
func (l *Log) Close() error {
	if !l.closed.CompareAndSwap(false, true) {
		return nil
	}
	if l.stopSync != nil {
		close(l.stopSync)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.trimLocked()
	if e := l.f.Sync(); err == nil {
		err = e
	}
	if e := l.f.Close(); err == nil {
		err = e
	}
	if e := l.dir.Close(); err == nil {
		err = e
	}
	if err == nil {
		err = l.err
	}
	return err
}

// Policy returns the configured fsync policy.
func (l *Log) Policy() Policy { return l.opt.Policy }

// Seq returns the active segment's sequence number without taking the
// log's mutex, so a stats read never waits out an fsync.
func (l *Log) Seq() uint64 { return l.seq.Load() }

// SnapSeq returns the newest durable checkpoint's sequence number
// (0 if none).
func (l *Log) SnapSeq() uint64 { return l.snapSeq.Load() }

// BytesSinceSnapshot returns the log bytes appended since the last
// completed checkpoint — the snapshotter's trigger metric.
func (l *Log) BytesSinceSnapshot() int64 { return l.sinceSnap.Load() }

// FsyncHist returns a snapshot of the fsync latency histogram (ns).
func (l *Log) FsyncHist() obs.HistSnapshot { return l.fsyncNs.Snapshot() }

// ReplayHist returns a snapshot of the replayed-batch-size histogram
// (records per frame), populated during recovery.
func (l *Log) ReplayHist() obs.HistSnapshot { return l.replayBatchLen.Snapshot() }

// Stats is a point-in-time scalar summary for STATS / /statsz.
type Stats struct {
	Policy          string
	Seq             uint64
	SnapSeq         uint64
	Batches         int64
	Records         int64
	Bytes           int64
	Syncs           int64
	SyncErrors      int64
	Rotations       int64
	Snapshots       int64
	SnapshotPairs   int64
	SnapshotBytes   int64
	LastSnapshotNs  int64
	SinceSnapshot   int64
	TornTails       int64
	ReplayBatches   int64
	ReplayRecords   int64
	ReplaySnapPairs int64
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	return Stats{
		Policy:          l.opt.Policy.String(),
		Seq:             l.Seq(),
		SnapSeq:         l.snapSeq.Load(),
		Batches:         l.batches.Load(),
		Records:         l.records.Load(),
		Bytes:           l.bytes.Load(),
		Syncs:           l.syncs.Load(),
		SyncErrors:      l.syncErrs.Load(),
		Rotations:       l.rotations.Load(),
		Snapshots:       l.snapshots.Load(),
		SnapshotPairs:   l.snapPairs.Load(),
		SnapshotBytes:   l.snapBytes.Load(),
		LastSnapshotNs:  l.lastSnapNs.Load(),
		SinceSnapshot:   l.sinceSnap.Load(),
		TornTails:       l.tornTails.Load(),
		ReplayBatches:   l.replayBatches.Load(),
		ReplayRecords:   l.replayRecords.Load(),
		ReplaySnapPairs: l.replaySnapPairs.Load(),
	}
}

func defaultLogf(format string, args ...any) { log.Printf(format, args...) }
