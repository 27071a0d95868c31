package server

import (
	"errors"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	pws "repro"
	"repro/internal/coalesce"
	"repro/internal/obs"
	"repro/internal/wire"
)

// conn is one client connection, served by one goroutine that alternates
// between one blocking read and a non-blocking drain of everything else
// already on the wire. The drained pipeline's map operations are cut
// into segments at barrier commands; each segment is submitted as one
// job to the server's group-commit scheduler (internal/coalesce), waited
// for, and rendered in place — so reply order is command order by
// construction, and every map operation of every connection reaches the
// map through the scheduler's cuts, one at a time, each run by whichever
// connection leads it.
type conn struct {
	srv *Server
	nc  net.Conn
	r   *wire.Reader
	w   *wire.Writer

	// batch state, reused across pipelines so a long-lived connection's
	// steady state allocates nothing per pipeline. job is the one frame
	// this connection ever has in the scheduler: its Ops alias c.ops for
	// the duration of a segment's commit and its Res is the result
	// buffer, grown by Submit and kept across segments. submitted reports
	// whether the current pipeline submitted it at all.
	cmds      []wire.Command
	ops       []pws.Op[string, string]
	job       coalesce.Job[string, string]
	submitted bool
	pending   []pendingReply
	scanBuf   []pws.KV[string, string] // SCAN page buffer, reused across pages

	// Front-cache state (zero/unused when the store has no front).
	// hits are the GETs of the current batch segment answered straight
	// from the hot-key front — they consume no op and no result slot,
	// and renderReplies interleaves them back by position. A GET that
	// misses becomes an ordinary op; the engine fills the front when
	// its read finds the key, so the connection holds no fill state.
	// writeKeys are the keys written earlier in the CURRENT pipeline: a
	// later GET of such a key must not consult the front, because its
	// batch may not have committed yet and program order within a
	// pipeline must see the write (arena-aliased; reset each pipeline).
	front     bool
	hits      []frontHit
	writeKeys []string

	// dlMu serializes read-deadline writers: the connection goroutine's
	// idle-timeout arming/disarming and Close's shutdown grace. Once
	// shuttingDown is set the shutdown deadline wins — the connection must
	// not overwrite (or clear) it with an idle deadline.
	dlMu         sync.Mutex
	shuttingDown bool
}

// armShutdown sets the shutdown-grace read deadline (called by Close);
// after it, idle-deadline writes become no-ops.
func (c *conn) armShutdown() {
	c.dlMu.Lock()
	c.shuttingDown = true
	c.nc.SetReadDeadline(time.Now().Add(shutdownGrace))
	c.dlMu.Unlock()
}

// armIdle sets the idle-timeout read deadline ahead of a blocking read
// for the next command. No-op without Config.IdleTimeout or once
// shutdown owns the deadline.
func (c *conn) armIdle() {
	if c.srv.cfg.IdleTimeout <= 0 {
		return
	}
	c.dlMu.Lock()
	if !c.shuttingDown {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	}
	c.dlMu.Unlock()
}

// disarmIdle clears the idle deadline once a command arrived, so a
// slow pipeline drain or a long batch commit never trips it — only
// waiting for the FIRST command of a pipeline counts as idle.
func (c *conn) disarmIdle() {
	if c.srv.cfg.IdleTimeout <= 0 {
		return
	}
	c.dlMu.Lock()
	if !c.shuttingDown {
		c.nc.SetReadDeadline(time.Time{})
	}
	c.dlMu.Unlock()
}

// shutdownGrace is how long past Close a connection may keep reading, so
// pipelined commands already in the transport's buffers (e.g. the kernel
// socket buffer, which an already-expired read deadline abandons even
// when data is readable) are still drained and answered. Close sets each
// connection's read deadline this far in the future — the single
// deadline writer — and the expiry both unblocks idle reads and bounds
// how long Close waits for stragglers.
const shutdownGrace = 50 * time.Millisecond

// pendingReply records how to render one command's reply from the batch
// results it consumed.
type pendingReply struct {
	kind replyKind
	n    int // total keys answered (ops consumed = n - hits for GET kinds)
	hits int // of n, how many were served by the front cache
}

// frontHit is one GET answered by the hot-key front: pos is the key's
// position within its command (0 for single-key GET), val the cached
// value. Hits are consumed in order by renderReplies.
type frontHit struct {
	pos int
	val string
}

type replyKind uint8

const (
	replyGet replyKind = iota
	replySet
	replyDel
	replyMGet
	replyMSet
	replyExpire // :1 armed / :0 missing, one result
	replySetex  // +OK, consumes two results (insert + expire)
)

// serve runs the connection until it closes, errors, quits, or the server
// shuts down.
//
// Shutdown needs no check here: Close sets the read deadline to the
// grace window, so commands that reach the server's buffers before it
// expires are still read (bufio serves buffered bytes regardless of the
// deadline), batched and answered — then the blocking read fails with
// the deadline error and the connection ends silently. A frame cut in
// half by the deadline simply ends the connection; its bytes were never
// fully accepted, so no reply is owed.
//
// The coalescer waits for the connections its last cut answered, so a
// pipeline that reaches it with no job, and the connection's end, are
// reported with Skip: otherwise the next cut would wait out its window
// for a job that is not coming.
func (c *conn) serve() {
	defer c.srv.co.Skip(&c.job)
	for {
		firstErr, drainErr := c.readPipeline()
		if firstErr != nil {
			c.finish(firstErr)
			return
		}
		c.submitted = false
		quit := c.process(c.cmds)
		if !c.submitted {
			c.srv.co.Skip(&c.job)
		}
		if drainErr != nil {
			c.finish(drainErr)
			return
		}
		// A failed flush means the client's receive side is gone: end the
		// connection instead of serving a peer that can never hear the
		// answers.
		if err := c.w.Flush(); err != nil {
			return
		}
		if quit {
			return
		}
		// The pipeline is fully committed and replied to (every segment
		// was waited for before its replies were rendered), and nothing
		// of it is retained (inserted keys/values were copied): recycle
		// the reader's command arena (wire.Reader aliasing contract).
		c.r.Reset()
	}
}

// readPipeline reads one command (blocking) and then drains everything
// else already on the wire (non-blocking, up to MaxPipeline) into
// c.cmds. firstErr reports a failure before any command was read (no
// replies owed); drainErr a failure mid-drain — the commands read before
// it must still be processed and answered before the connection ends.
func (c *conn) readPipeline() (firstErr, drainErr error) {
	c.armIdle()
	cmd, err := c.r.ReadCommand()
	if err != nil {
		return err, nil
	}
	c.disarmIdle()
	// Parse timing starts after the blocking read: the wait for the first
	// command measures the client's think time, not the server's decode.
	var t0 int64
	st := c.srv.stages()
	if st != nil {
		t0 = obs.Now()
	}
	c.cmds = append(c.cmds[:0], cmd)
	for len(c.cmds) < c.srv.cfg.MaxPipeline && c.r.Buffered() > 0 {
		next, err := c.r.ReadCommand()
		if err != nil {
			return nil, err
		}
		c.cmds = append(c.cmds, next)
	}
	st.RecordSince(obs.StageParse, t0)
	return nil, nil
}

// silentErr reports the terminal read errors that end a connection
// without an error reply: clean disconnects and shutdown deadlines.
func silentErr(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed) ||
		errors.Is(err, os.ErrDeadlineExceeded)
}

// finish handles a terminal read error: silent errors end the connection
// quietly; protocol violations get one final error reply. Either way the
// connection is done.
func (c *conn) finish(err error) {
	if !silentErr(err) {
		c.srv.st.errors.Add(1)
		c.w.WriteError("ERR " + trunc(err.Error()))
	}
	c.w.Flush()
}

// trunc bounds client-supplied text echoed into error replies, so the
// reply line always fits a conforming decoder's line limit no matter
// how long the offending argument was.
func trunc(s string) string {
	const max = 128
	if len(s) <= max {
		return s
	}
	return s[:max] + "..."
}

// process executes one drained pipeline. Consecutive map commands
// accumulate into a single segment; non-map commands (LEN, STATS, SCAN,
// PING, QUIT and errors) act as barriers that cut the accumulated
// segment first (flushBatch: submit, wait, render), so replies stay in
// command order and a map-state reader observes this connection's
// earlier commands and none of its later ones. It reports whether the
// client asked to quit.
func (c *conn) process(cmds []wire.Command) (quit bool) {
	c.ops = c.ops[:0]
	c.pending = c.pending[:0]
	if c.front {
		c.hits = c.hits[:0]
		clear(c.writeKeys)
		c.writeKeys = c.writeKeys[:0]
	}
	for _, cmd := range cmds {
		switch name := strings.ToUpper(cmd.Name); name {
		case "GET":
			if !c.wantArgs(cmd, len(cmd.Args) == 1) {
				continue
			}
			c.srv.st.gets.Add(1)
			if hit := c.frontOp(cmd.Args[0], 0); hit {
				c.pending = append(c.pending, pendingReply{kind: replyGet, n: 1, hits: 1})
				continue
			}
			c.pending = append(c.pending, pendingReply{kind: replyGet, n: 1})
		case "SET":
			if !c.wantArgs(cmd, len(cmd.Args) == 2) {
				continue
			}
			c.noteWrite(cmd.Args[0])
			// Inserted keys and values outlive the pipeline inside the
			// map; copy them out of the reader's arena.
			c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpInsert,
				Key: strings.Clone(cmd.Args[0]), Val: strings.Clone(cmd.Args[1])})
			c.pending = append(c.pending, pendingReply{kind: replySet, n: 1})
			c.srv.st.sets.Add(1)
		case "DEL":
			if !c.wantArgs(cmd, len(cmd.Args) >= 1) {
				continue
			}
			for _, k := range cmd.Args {
				c.noteWrite(k)
				c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpDelete, Key: k})
			}
			c.pending = append(c.pending, pendingReply{kind: replyDel, n: len(cmd.Args)})
			c.srv.st.dels.Add(int64(len(cmd.Args)))
		case "MGET":
			if !c.wantArgs(cmd, len(cmd.Args) >= 1) {
				continue
			}
			nhits := 0
			for pos, k := range cmd.Args {
				if c.frontOp(k, pos) {
					nhits++
				}
			}
			c.pending = append(c.pending, pendingReply{kind: replyMGet, n: len(cmd.Args), hits: nhits})
			c.srv.st.gets.Add(int64(len(cmd.Args)))
		case "EXPIRE":
			if !c.wantArgs(cmd, len(cmd.Args) == 2) {
				continue
			}
			secs, err := wire.ParseExpireSeconds(cmd.Args[1])
			if err != nil {
				c.flushBatch()
				c.srv.st.errors.Add(1)
				c.w.WriteError("ERR invalid expire time '" + trunc(cmd.Args[1]) + "'")
				continue
			}
			c.noteWrite(cmd.Args[0])
			// The deadline is resolved to ABSOLUTE nanos here, once, so
			// the WAL logs a fixed point in time (replay must not restart
			// the TTL). The key outlives the pipeline inside the expiry
			// table; copy it out of the reader's arena.
			c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpExpire,
				Key: strings.Clone(cmd.Args[0]), Deadline: c.srv.store.Now() + secs*int64(time.Second)})
			c.pending = append(c.pending, pendingReply{kind: replyExpire, n: 1})
			c.srv.st.expires.Add(1)
		case "SETEX":
			if !c.wantArgs(cmd, len(cmd.Args) == 3) {
				continue
			}
			secs, err := wire.ParseExpireSeconds(cmd.Args[1])
			if err != nil {
				c.flushBatch()
				c.srv.st.errors.Add(1)
				c.w.WriteError("ERR invalid expire time '" + trunc(cmd.Args[1]) + "'")
				continue
			}
			c.noteWrite(cmd.Args[0])
			// Two ops, one reply: the insert makes the key live, the
			// expire arms its TTL in the same combined batch (adjacent
			// ops on one key land in one engine group, so no other
			// operation can interleave between them).
			k := strings.Clone(cmd.Args[0])
			c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpInsert,
				Key: k, Val: strings.Clone(cmd.Args[2])})
			c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpExpire,
				Key: k, Deadline: c.srv.store.Now() + secs*int64(time.Second)})
			c.pending = append(c.pending, pendingReply{kind: replySetex, n: 2})
			c.srv.st.sets.Add(1)
			c.srv.st.expires.Add(1)
		case "MSET":
			if !c.wantArgs(cmd, len(cmd.Args) >= 2 && len(cmd.Args)%2 == 0) {
				continue
			}
			for i := 0; i < len(cmd.Args); i += 2 {
				c.noteWrite(cmd.Args[i])
				c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpInsert,
					Key: strings.Clone(cmd.Args[i]), Val: strings.Clone(cmd.Args[i+1])})
			}
			c.pending = append(c.pending, pendingReply{kind: replyMSet, n: len(cmd.Args) / 2})
			c.srv.st.sets.Add(int64(len(cmd.Args) / 2))
		case "LEN":
			c.flushBatch()
			c.w.WriteInt(int64(c.srv.store.Len()))
		case "PING":
			c.flushBatch()
			c.w.WriteSimple("PONG")
		case "STATS":
			c.flushBatch()
			c.w.WriteBulk(c.srv.stats.Text())
		case "SCAN":
			c.flushBatch()
			c.scan(cmd)
		case "QUIT":
			c.flushBatch()
			c.w.WriteSimple("OK")
			return true
		default:
			c.flushBatch()
			c.srv.st.errors.Add(1)
			c.w.WriteError("ERR unknown command '" + trunc(cmd.Name) + "'")
		}
	}
	c.flushBatch()
	return false
}

// wantArgs validates a command's arity; on failure it cuts the batch
// (to keep reply order) and emits an arity error.
func (c *conn) wantArgs(cmd wire.Command, ok bool) bool {
	if ok {
		return true
	}
	c.flushBatch()
	c.srv.st.errors.Add(1)
	c.w.WriteError("ERR wrong number of arguments for '" + trunc(strings.ToLower(cmd.Name)) + "'")
	return false
}

// frontOp decodes one GET key: a front-cache hit appends a frontHit
// (no op, no batch round trip — the reply comes straight from the
// cache) and reports true; a miss appends the GET op and reports false.
// Keys this pipeline already wrote skip the front entirely — their
// write may sit in an uncommitted batch, and program order within a
// pipeline must observe it. pos is the key's position within its
// command, for reply interleaving.
func (c *conn) frontOp(k string, pos int) (hit bool) {
	if c.front && !c.wroteKey(k) {
		if v, ok := c.srv.store.FrontGet(k); ok {
			c.hits = append(c.hits, frontHit{pos: pos, val: v})
			return true
		}
	}
	c.ops = append(c.ops, pws.Op[string, string]{Kind: pws.OpGet, Key: k})
	return false
}

// noteWrite records a key written by the current pipeline, gating later
// front-cache consults of the same key (see frontOp). The recorded
// strings alias the read arena; the list is reset at each pipeline
// before the arena recycles.
func (c *conn) noteWrite(k string) {
	if c.front {
		c.writeKeys = append(c.writeKeys, k)
	}
}

// wroteKey reports whether the current pipeline already wrote k. A
// linear scan: pipelines are bounded by MaxPipeline and writes are the
// minority of a cache-worthy workload, so the scan stays cheap and
// allocation-free.
func (c *conn) wroteKey(k string) bool {
	for _, w := range c.writeKeys {
		if w == k {
			return true
		}
	}
	return false
}

// flushBatch cuts the accumulated segment: it submits the operations as
// one job to the group-commit scheduler, waits for the combined batch
// that carries them to commit (applied, and logged when durable), and
// renders the replies in place. A segment that is all front-cache hits
// has replies owed but nothing to commit, so it skips the scheduler.
func (c *conn) flushBatch() {
	if len(c.ops) == 0 && len(c.pending) == 0 {
		return
	}
	s := c.srv
	if len(c.ops) > 0 {
		c.job.Ops = c.ops
		c.submitted = true
		s.co.Submit(&c.job)
		c.job.Wait()
	}
	var t0 int64
	st := s.stages()
	if st != nil {
		t0 = obs.Now()
	}
	c.renderReplies(c.pending, c.job.Res, c.hits)
	st.RecordSince(obs.StageReply, t0)
	c.ops = c.ops[:0]
	c.pending = c.pending[:0]
	if c.front {
		clear(c.hits)
		c.hits = c.hits[:0]
	}
}

// renderReplies writes the per-command replies of one batch in order,
// interleaving front-cache hits (which consumed no result slot) back
// into their command positions: i cursors the batch results, j the
// hits, and each GET-kind reply consumes exactly pending.hits entries
// of hits, whose pos fields give the within-command interleave.
func (c *conn) renderReplies(pending []pendingReply, res []pws.Result[string], hits []frontHit) {
	i, j := 0, 0
	for _, p := range pending {
		switch p.kind {
		case replyGet:
			if p.hits == 1 {
				c.w.WriteBulk(hits[j].val)
				j++
			} else {
				c.writeGet(res[i])
				i++
			}
		case replySet:
			c.w.WriteSimple("OK")
			i++
		case replyDel:
			n := 0
			for k := 0; k < p.n; k++ {
				if res[i].OK {
					n++
				}
				i++
			}
			c.w.WriteInt(int64(n))
		case replyMGet:
			c.w.WriteArrayHeader(p.n)
			end := j + p.hits
			for pos := 0; pos < p.n; pos++ {
				if j < end && hits[j].pos == pos {
					c.w.WriteBulk(hits[j].val)
					j++
				} else {
					c.writeGet(res[i])
					i++
				}
			}
		case replyMSet:
			i += p.n
			c.w.WriteSimple("OK")
		case replyExpire:
			if res[i].OK {
				c.w.WriteInt(1)
			} else {
				c.w.WriteInt(0)
			}
			i++
		case replySetex:
			i += p.n // insert + expire results; the reply is just OK
			c.w.WriteSimple("OK")
		}
	}
}

func (c *conn) writeGet(r pws.Result[string]) {
	if r.OK {
		c.w.WriteBulk(r.Val)
	} else {
		c.w.WriteNil()
	}
}

// scan serves SCAN lo hi [count [cursor]]: one cursor page of the ordered
// range [lo, hi), at most count pairs (default/cap Config.MaxScan). The
// reply is an array of 1+2n bulk strings: first the resume cursor (empty
// when the scan is exhausted, else an opaque token encoding the last
// returned key — pass it back as the fourth argument for the next page),
// then the n key/value pairs in ascending key order.
//
// The page is served by Sharded.RangePage: one bounded batched range op
// broadcast to the shards, riding their normal cut batches. No Quiesce,
// no map-wide lock — the scheduler's combined commits proceed untouched,
// which is what retired the stop-the-world SCAN. It runs after the
// caller's flushBatch, preserving per-connection sequential semantics
// (this connection's earlier writes are committed and visible).
//
// The lo/hi arguments may alias the read arena: the range op completes
// before scan returns (well before the pipeline's Reset), and the keys
// and values written to the wire are map-owned copies, so nothing here
// outlives the arena contract.
func (c *conn) scan(cmd wire.Command) {
	if len(cmd.Args) < 2 || len(cmd.Args) > 4 {
		c.srv.st.errors.Add(1)
		c.w.WriteError("ERR wrong number of arguments for 'scan'")
		return
	}
	lo, hi := cmd.Args[0], cmd.Args[1]
	max := c.srv.cfg.MaxScan
	if len(cmd.Args) >= 3 {
		n, err := strconv.Atoi(cmd.Args[2])
		if err != nil || n < 1 {
			c.srv.st.errors.Add(1)
			c.w.WriteError("ERR invalid scan count '" + trunc(cmd.Args[2]) + "'")
			return
		}
		if n < max {
			max = n
		}
	}
	xlo := false
	if len(cmd.Args) == 4 && cmd.Args[3] != "" {
		k, err := wire.DecodeCursor(cmd.Args[3])
		if err != nil {
			c.srv.st.errors.Add(1)
			c.w.WriteError("ERR invalid scan cursor '" + trunc(cmd.Args[3]) + "'")
			return
		}
		// Resume strictly after the cursor key, never before lo: a cursor
		// from an earlier page always satisfies k >= lo, and anything else
		// (a forged cursor below lo) must not widen the range.
		if k >= lo {
			lo, xlo = k, true
		}
	}
	page, more := c.srv.store.RangePage(lo, xlo, hi, max, c.scanBuf[:0])
	c.scanBuf = page
	c.srv.st.scans.Add(1)
	c.w.WriteArrayHeader(1 + 2*len(page))
	if more && len(page) > 0 {
		c.w.WriteBulk(wire.EncodeCursor(page[len(page)-1].Key))
	} else {
		c.w.WriteBulk("")
	}
	for _, kv := range page {
		c.w.WriteBulk(kv.Key)
		c.w.WriteBulk(kv.Val)
	}
}
