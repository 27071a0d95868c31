package server

import (
	"fmt"
	"strings"
	"time"

	pws "repro"
	"repro/internal/obs"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Durability. With Config.WAL set the server logs every committed
// mutation through the group-commit scheduler's single commit loop:
// the applier applies a combined batch to the map, then appends the
// batch's inserts/deletes as ONE WAL frame and (under fsync=always)
// fsyncs — all before the batch's jobs are released, so no reply is
// written until the batch is durable. One fsync per coalescer cut is
// the whole cost model: the same window that amortizes tree work over
// a combined batch amortizes the disk write.
//
// The apply-BEFORE-append order is load-bearing for snapshots. The
// WAL's fuzzy checkpoint rotates to a fresh segment and then streams
// the live map (cursor-paged RangePage, no quiesce); because every
// record in older segments was applied to the map before the rotation,
// the scan observes it (or a newer value for the same key), so
// checkpoint + ordered replay of segments >= the checkpoint seq
// converges to the logged state by last-writer-wins. The price is the
// usual group-commit window: a crash between apply and fsync loses
// only mutations whose replies were never written.
//
// The scheduler's single commit loop is what gives the WAL a total
// append order that matches the map's linearization order: every
// client mutation reaches the map through it, so the applier sees the
// cuts one at a time, in commit order.

// DefaultDurableWindow is the coalescing window a WAL-backed server
// gets when Config.CoalesceWindow is left zero: with an fsync on every
// cut, waiting this long for more traffic buys a shared sync.
const DefaultDurableWindow = 200 * time.Microsecond

// snapshotPage is the RangePage size used when streaming a checkpoint.
const snapshotPage = 1024

// restoreChunk is how many replayed records ride one bulk-load Apply
// during recovery.
const restoreChunk = 4096

// walHiSentinel builds a key strictly greater than any storable key:
// the wire layer rejects bulk strings longer than MaxBulk, so MaxBulk+1
// bytes of 0xff upper-bounds every key a client can ever insert. This
// is what lets the snapshot scan reuse the half-open RangePage
// [lo, hi) without threading an "unbounded" flag through the engines.
func walHiSentinel(l wire.Limits) string {
	mb := l.MaxBulk
	if mb < 1 {
		mb = wire.DefaultLimits().MaxBulk
	}
	return strings.Repeat("\xff", mb+1)
}

// appendWAL logs one committed combined batch. It runs on the
// coalescer's commit goroutine, synchronously between the map apply
// and the batch's jobs being released — delete keys may alias read
// arenas, which is safe exactly because the frame encoding copies them
// before any job ack lets an arena recycle.
func (s *Server) appendWAL(batches [][]pws.Op[string, string]) {
	recs := s.walRecs[:0]
	for _, b := range batches {
		for i := range b {
			switch b[i].Kind {
			case pws.OpInsert:
				recs = append(recs, wal.Record{Key: b[i].Key, Val: b[i].Val})
			case pws.OpDelete:
				recs = append(recs, wal.Record{Key: b[i].Key, Del: true})
			case pws.OpExpire:
				// The deadline is logged ABSOLUTE (it was resolved from
				// the TTL seconds at parse time), so replay can neither
				// resurrect an expired key nor extend a live one.
				recs = append(recs, wal.Record{Key: b[i].Key, Expire: true, Deadline: b[i].Deadline})
			}
		}
	}
	s.walRecs = recs
	if len(recs) == 0 {
		return // read-only batch: nothing to make durable
	}
	var t0 int64
	st := s.stages()
	if st != nil {
		t0 = obs.Now()
	}
	err := s.wal.AppendBatch(recs)
	st.RecordSince(obs.StageFsync, t0)
	// Drop the arena-aliased key references now that the frame is
	// encoded; the batches' arenas recycle after the jobs ack.
	clear(recs)
	if err != nil {
		// Fail-stop: the batch is applied in memory but may not be on
		// disk, and replies for it are about to be written. Acking
		// writes the log cannot hold violates the durability contract
		// under every policy, so a broken WAL ends the process.
		panic(fmt.Sprintf("server: wal append failed, cannot ack non-durable batch: %v", err))
	}
}

// Recover bulk-loads a WAL recovery stream into the map, chunking the
// replayed records through the sharded Apply bulk path. It must run
// before the server accepts connections; it returns the number of
// records applied (snapshot pairs + logged mutations).
//
// Expire records carry absolute deadlines, replayed in order as
// OpExpire so re-arms and clears land exactly as logged — except a
// deadline already in the past, which degrades to a delete: the key
// died before the crash (or during the downtime) and must not
// resurrect. Budget evictions are never logged; a recovered map that
// exceeds its budget simply re-evicts from its cold end at the first
// batch boundaries, converging to an equally-valid working set.
func (s *Server) Recover(rec *wal.Recovery) (int64, error) {
	var n int64
	now := s.store.Now()
	ops := make([]pws.Op[string, string], 0, restoreChunk)
	var res []pws.Result[string]
	flush := func() {
		if len(ops) == 0 {
			return
		}
		res = s.store.ApplyInto(ops, res[:0])
		n += int64(len(ops))
		ops = ops[:0]
	}
	err := rec.Replay(func(recs []wal.Record) error {
		for _, r := range recs {
			switch {
			case r.Del:
				ops = append(ops, pws.Op[string, string]{Kind: pws.OpDelete, Key: r.Key})
			case r.Expire && r.Deadline <= now:
				ops = append(ops, pws.Op[string, string]{Kind: pws.OpDelete, Key: r.Key})
			case r.Expire:
				ops = append(ops, pws.Op[string, string]{Kind: pws.OpExpire, Key: r.Key, Deadline: r.Deadline})
			default:
				ops = append(ops, pws.Op[string, string]{Kind: pws.OpInsert, Key: r.Key, Val: r.Val})
			}
			if len(ops) == restoreChunk {
				flush()
			}
		}
		return nil
	})
	flush()
	return n, err
}

// Checkpoint streams the live map into a WAL checkpoint and prunes
// sealed segments behind it. Exported for operational use and tests;
// the background snapshotter calls it when the log outgrows
// Config.SnapshotBytes.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Snapshot(func(emit func(rec wal.Record) error) error {
		lo, xlo := "", false
		var buf []pws.KV[string, string]
		for {
			page, more := s.store.RangePage(lo, xlo, s.walHi, snapshotPage, buf[:0])
			buf = page
			for _, kv := range page {
				if err := emit(wal.Record{Key: kv.Key, Val: kv.Val}); err != nil {
					return err
				}
			}
			if !more || len(page) == 0 {
				break
			}
			lo, xlo = page[len(page)-1].Key, true
		}
		// Armed TTLs ride the same checkpoint as expire records (absolute
		// deadlines), after the pairs so recovery arms keys that exist.
		// Entries racing the fuzzy scan are repaired by the WAL tail,
		// which replays every post-rotation mutation in order.
		var eerr error
		s.store.ExpiryEntries(func(k string, deadline int64) {
			if eerr == nil {
				eerr = emit(wal.Record{Key: k, Expire: true, Deadline: deadline})
			}
		})
		return eerr
	})
}

// snapshotLoop checkpoints whenever the log has grown past
// Config.SnapshotBytes since the last checkpoint.
func (s *Server) snapshotLoop() {
	defer close(s.snapDone)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.snapStop:
			return
		case <-t.C:
			if s.wal.BytesSinceSnapshot() < s.cfg.SnapshotBytes {
				continue
			}
			if err := s.Checkpoint(); err != nil && err != wal.ErrClosed {
				s.st.errors.Add(1)
			}
		}
	}
}

// WALStats returns the WAL counters; ok is false without a WAL.
func (s *Server) WALStats() (wal.Stats, bool) {
	if s.wal == nil {
		return wal.Stats{}, false
	}
	return s.wal.Stats(), true
}
