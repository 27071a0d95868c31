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
// mutation through the group-commit scheduler's cuts. Per cut, the
// applier — on the cut's leader, the connection goroutine that runs it —
// writes the batch's inserts/deletes/expires as ONE WAL frame, then
// applies the batch with the frame's sync (an fsync under fsync=always)
// as ApplyScattered's work: the shard workers apply while the leader
// syncs, and the leader applies any sub-batch no worker has started once
// the sync returns. All of it
// happens before the batch's jobs are released and its front fills are
// published, so neither a reply nor the front shows a write before its
// frame is durable. One fsync per coalescer
// cut is the whole cost model: the same window that amortizes tree
// work over a combined batch amortizes the disk write, and the write
// hides behind the apply instead of following it.
//
// Log-first costs one ordering rule. The WAL's fuzzy checkpoint rotates
// to a fresh segment and then streams the live map (cursor-paged
// RangePage, no quiesce); it is correct only if every record in older
// segments was in the map before the rotation. The WAL holds its cut
// open from WriteBatch to EndBatch and Snapshot's rotation waits for it,
// so the applier closes the cut only after the apply. It also means an
// op that panics an engine is logged before the panic, and recovery
// replays it: a crash loop where the apply-first order restarted clean.
//
// The scheduler's one leader at a time is what gives the WAL a total
// append order that matches the map's linearization order: every
// client mutation reaches the map through a cut, so the applier sees
// the cuts one at a time, in commit order.

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

// applyDurable is a WAL-backed server's applier. It runs on the cut's
// leader: write the cut's frame, apply the batch
// with the frame's sync as the overlap work, close the WAL's cut, and
// return — only then are the batch's jobs released. A read-only cut
// logs nothing and has nothing to sync.
func (s *Server) applyDurable(batches [][]pws.Op[string, string], dsts [][]pws.Result[string]) {
	recs := s.walRecords(batches)
	if len(recs) == 0 {
		s.store.ApplyScattered(batches, dsts, nil)
		return
	}
	err := s.wal.WriteBatch(recs)
	// Drop the arena-aliased key references now that the frame is
	// encoded; the batches' arenas recycle after the jobs ack.
	clear(recs)
	if err != nil {
		// Fail-stop: the log refuses the batch, and replies for it would
		// be written if the cut went on. Acking writes the log cannot
		// hold violates the durability contract under every policy, so a
		// broken WAL ends the process.
		failStop(fmt.Sprintf("server: wal write failed, cannot ack non-durable batch: %v", err))
	}
	// Fail-stop inside the work: no front fill of a non-durable cut is published.
	s.store.ApplyScattered(batches, dsts, func() {
		if s.cutHook != nil {
			s.cutHook()
		}
		if err := s.syncWAL(); err != nil {
			failStop(fmt.Sprintf("server: wal sync failed, cannot ack non-durable batch: %v", err))
		}
	})
	s.wal.EndBatch()
}

// failStop ends the process over a cut that cannot be made durable. The
// applier runs on the cut's leader, a connection goroutine, and a panic
// there would first unwind that connection's deferred cleanup, which
// closes its socket: the client would read an orderly EOF before the
// process died. So the panic is raised on a goroutine of its own while
// the leader blocks, and nothing of the failed cut runs after the failure.
func failStop(msg string) {
	go func() { panic(msg) }()
	select {}
}

// syncWAL is a durable cut's overlap work: the frame's sync, timed as
// the fsync stage, run while the shards apply the cut.
func (s *Server) syncWAL() error {
	var t0 int64
	st := s.stages()
	if st != nil {
		t0 = obs.Now()
	}
	err := s.wal.SyncBatch()
	st.RecordSince(obs.StageFsync, t0)
	return err
}

// walRecords encodes a cut's mutations as WAL records into the
// applier's scratch. Keys and values alias read arenas until the frame
// is written.
func (s *Server) walRecords(batches [][]pws.Op[string, string]) []wal.Record {
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
	return recs
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
