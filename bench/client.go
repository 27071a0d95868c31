package main

import (
	"fmt"
	"time"

	"repro/internal/wire"
)

type opKind uint8

const (
	opGet opKind = iota
	opSet        // SET and SETEX
	opScan
	numOpKinds
)

// violation classifies a failed operation. Every kind is a failed op in
// fail_frac; the split is printed so a tripped oracle says what it saw.
type violation uint8

const (
	vNone          violation = iota
	vErrorReply              // error frame or a reply of the wrong kind
	vWrongKey                // a value that names another key or owner
	vStaleRead               // owned key read back older than its last acked write
	vIllegalNil              // GET missed where nothing expires or is evicted
	vBadScan                 // SCAN page unsorted, out of range or over the page size
	vUnanswered              // no reply: watchdog fired or the child died
	vLostOnRestart           // acked write not readable after SIGKILL + restart
	numViolations
)

var violationNames = [numViolations]string{
	"", "error_reply", "wrong_key", "stale_read", "illegal_nil", "bad_scan", "unanswered", "lost_on_restart",
}

// pendingOp is one in-flight command of the current pipeline.
type pendingOp struct {
	kind opKind
	idx  int    // key index (SCAN: lower bound)
	seq  uint32 // SET: the sequence number written
}

// span is one client-side pipeline trace record (traced pass only).
// Times are nanoseconds since the round began.
type span struct {
	Conn       int   `json:"conn"`
	Batch      int64 `json:"batch"`
	Ops        int   `json:"ops"`
	EncodeNs   int64 `json:"encode_start_ns"`
	FlushNs    int64 `json:"flush_ns"`
	FirstReply int64 `json:"first_reply_ns"`
	DoneNs     int64 `json:"decode_done_ns"`
}

// maxSpansPerConn caps the spans one connection keeps per round: depth-1
// traffic makes ~10^5 pipelines per connection per round, and a trace
// file of the first 32k is as useful as one of all of them.
const maxSpansPerConn = 1 << 15

// tally is what one connection measured in one round (or warm-up).
type tally struct {
	lat       [numOpKinds]hist // submission of the op's pipeline → its reply
	batchRTT  hist             // pipeline submit → last reply
	ops       int64            // replies read
	gets      int64
	hits      int64
	attempted int64
	failed    int64
	viol      [numViolations]int64
	userBytes int64 // key+value bytes of acked SETs
	spans     []span
	keepSpans bool
}

func (t *tally) fail(v violation) {
	t.failed++
	t.viol[v]++
}

// client is one closed-loop connection: it owns the keys whose index is
// congruent to its id modulo the connection count, writes only those,
// reads any, and checks every reply.
type client struct {
	id, nconns int
	w          *workload
	wc         *wireConn
	gen        *keyGen
	seq        uint32   // last sequence number issued
	acked      []uint32 // last acked sequence per owned key (idx / nconns)
	sets       int64    // SETs issued, for the SETEX cadence
	batches    int64
	dead       bool // the connection failed; later rounds fail fast
	pipe       []pendingOp
	kbuf, vbuf []byte
}

func newClient(id, nconns int, w *workload, wc *wireConn, cdf []float64, seed int64) *client {
	return &client{
		id: id, nconns: nconns, w: w, wc: wc,
		gen:   newKeyGen(w, cdf, seed*1000003+int64(id)*7919),
		acked: make([]uint32, w.Universe/nconns+1),
		pipe:  make([]pendingOp, 0, w.Depth),
	}
}

// owned maps a drawn index to the nearest index this connection owns.
func (c *client) owned(idx int) int {
	idx = idx - idx%c.nconns + c.id
	if idx >= c.w.Universe {
		idx -= c.nconns
	}
	return idx
}

func (c *client) key(idx int) string {
	c.kbuf = appendKey(c.kbuf[:0], idx)
	return string(c.kbuf)
}

func (c *client) value(idx int, seq uint32) string {
	c.vbuf = appendValue(c.vbuf[:0], idx, c.id, seq)
	return string(c.vbuf)
}

// preload stores every owned key with sequence 0, pipelined.
func (c *client) preload() error {
	const chunk = 128 // ~13 KiB per flush: well inside the codec's 64 KiB buffers
	sent := 0
	drain := func() error {
		if err := c.wc.w.Flush(); err != nil {
			return err
		}
		for ; sent > 0; sent-- {
			rep, err := c.wc.r.ReadReply()
			if err != nil {
				return err
			}
			if rep.Kind != wire.SimpleReply {
				return fmt.Errorf("preload: unexpected %s reply %q", rep.Kind, rep.Str)
			}
		}
		c.wc.r.Reset()
		return nil
	}
	for idx := c.id; idx < c.w.Universe; idx += c.nconns {
		if err := c.wc.w.WriteCommand("SET", c.key(idx), c.value(idx, 0)); err != nil {
			return err
		}
		if sent++; sent == chunk {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}

// run drives pipelines until the deadline (timed round) or until budget
// operations are done (warm-up; deadline zero).
func (c *client) run(start time.Time, dur time.Duration, budget int64, t *tally) {
	if c.dead {
		// The server is gone: one pipeline's worth of unanswered ops per
		// round keeps fail_frac honest without pretending to measure.
		t.attempted += int64(c.w.Depth)
		for i := 0; i < c.w.Depth; i++ {
			t.fail(vUnanswered)
		}
		return
	}
	for {
		now := time.Now()
		if budget > 0 {
			if t.ops >= budget {
				return
			}
		} else if now.Sub(start) >= dur {
			return
		}
		t0 := now
		c.encodePipeline()
		err := c.wc.w.Flush()
		t1 := time.Now()
		var tFirst time.Time
		answered := 0
		for ; err == nil && answered < len(c.pipe); answered++ {
			var rep wire.Reply
			if rep, err = c.wc.r.ReadReply(); err != nil {
				break
			}
			now = time.Now()
			if answered == 0 {
				tFirst = now
			}
			op := c.pipe[answered]
			t.attempted++
			if v := c.check(op, rep, t); v != vNone {
				t.fail(v)
			}
			t.ops++
			t.lat[op.kind].record(int64(now.Sub(t0)))
		}
		c.wc.r.Reset()
		if err != nil {
			c.dead = true
			for range c.pipe[answered:] {
				t.attempted++
				t.fail(vUnanswered)
			}
			return
		}
		t.batchRTT.record(int64(now.Sub(t0)))
		if t.keepSpans && len(t.spans) < maxSpansPerConn {
			t.spans = append(t.spans, span{
				Conn: c.id, Batch: c.batches, Ops: len(c.pipe),
				EncodeNs: int64(t0.Sub(start)), FlushNs: int64(t1.Sub(start)),
				FirstReply: int64(tFirst.Sub(start)), DoneNs: int64(now.Sub(start)),
			})
		}
		c.batches++
	}
}

// encodePipeline draws Depth operations and writes them to the codec
// buffer. Write errors surface at Flush.
func (c *client) encodePipeline() {
	c.pipe = c.pipe[:0]
	w := c.w
	for i := 0; i < w.Depth; i++ {
		idx := c.gen.next()
		r := c.gen.rng.Intn(100)
		switch {
		case r < w.GetPct:
			c.wc.w.WriteCommand("GET", c.key(idx))
			c.pipe = append(c.pipe, pendingOp{kind: opGet, idx: idx})
		case r < w.GetPct+w.ScanPct:
			lo := min(idx, w.Universe-scanSpan)
			c.wc.w.WriteCommand("SCAN", c.key(lo), keyOf(lo+scanSpan), scanPageArg)
			c.pipe = append(c.pipe, pendingOp{kind: opScan, idx: lo})
		default:
			idx = c.owned(idx)
			c.seq++
			c.sets++
			if w.SetexOneIn > 0 && c.sets%int64(w.SetexOneIn) == 0 {
				c.wc.w.WriteCommand("SETEX", c.key(idx), setexSecs, c.value(idx, c.seq))
			} else {
				c.wc.w.WriteCommand("SET", c.key(idx), c.value(idx, c.seq))
			}
			c.pipe = append(c.pipe, pendingOp{kind: opSet, idx: idx, seq: c.seq})
		}
	}
}

// check is the correctness oracle for one reply. Replies arrive in
// command order, so by the time a GET's reply is checked every earlier
// SET of this connection has been acked and recorded: "not older than
// the last acked write" is read-your-writes and monotone reads at once.
func (c *client) check(op pendingOp, rep wire.Reply, t *tally) violation {
	switch op.kind {
	case opSet:
		if rep.Kind != wire.SimpleReply {
			return vErrorReply
		}
		c.acked[op.idx/c.nconns] = op.seq
		t.userBytes += keyBytes + valueBytes
		return vNone
	case opGet:
		t.gets++
		if rep.Kind == wire.NilReply {
			if !c.w.nilLegal() {
				return vIllegalNil
			}
			return vNone
		}
		t.hits++
		if rep.Kind != wire.BulkReply {
			return vErrorReply
		}
		return c.checkValue(op.idx, rep.Str)
	default:
		return c.checkScan(op.idx, rep)
	}
}

// checkValue verifies that v is a value of key idx: it names the key and
// the key's owner, and on an owned key it is no older than the last
// acked write and no newer than the last issued one.
func (c *client) checkValue(idx int, v string) violation {
	c.kbuf = appendKey(c.kbuf[:0], idx)
	key, owner, seq, ok := parseValue(v)
	if !ok || key != string(c.kbuf) || owner != idx%c.nconns {
		return vWrongKey
	}
	if owner == c.id && (seq < c.acked[idx/c.nconns] || seq > c.seq) {
		return vStaleRead
	}
	return vNone
}

// checkScan verifies one SCAN page over [lo, lo+scanSpan): an array of a
// cursor and at most scanPage key/value pairs, keys strictly ascending
// and inside the range, each value a value of its key.
func (c *client) checkScan(lo int, rep wire.Reply) violation {
	if rep.Kind != wire.ArrayReply || len(rep.Elems) < 1 || len(rep.Elems)%2 != 1 {
		return vErrorReply
	}
	pairs := rep.Elems[1:]
	if len(pairs)/2 > scanPage {
		return vBadScan
	}
	loKey, hiKey := keyOf(lo), keyOf(lo+scanSpan)
	prev := ""
	for i := 0; i < len(pairs); i += 2 {
		k, v := pairs[i].Str, pairs[i+1].Str
		if pairs[i].Kind != wire.BulkReply || pairs[i+1].Kind != wire.BulkReply {
			return vErrorReply
		}
		if k < loKey || k >= hiKey || (i > 0 && k <= prev) {
			return vBadScan
		}
		if key, _, _, ok := parseValue(v); !ok || key != k {
			return vWrongKey
		}
		prev = k
	}
	return vNone
}

// audit re-reads, after a kill and restart, every owned key this client
// wrote and checks that the last acked value survived. It runs over a
// fresh connection to the restarted server.
func (c *client) audit(wc *wireConn, t *tally) error {
	const chunk = 128
	var pend []int
	drain := func() error {
		if err := wc.w.Flush(); err != nil {
			return err
		}
		for _, idx := range pend {
			rep, err := wc.r.ReadReply()
			if err != nil {
				return err
			}
			t.attempted++
			if rep.Kind != wire.BulkReply || c.checkValue(idx, rep.Str) != vNone {
				t.fail(vLostOnRestart)
			}
		}
		wc.r.Reset()
		pend = pend[:0]
		return nil
	}
	for slot, seq := range c.acked {
		idx := slot*c.nconns + c.id
		if seq == 0 || idx >= c.w.Universe {
			continue
		}
		wc.w.WriteCommand("GET", c.key(idx))
		if pend = append(pend, idx); len(pend) == chunk {
			if err := drain(); err != nil {
				return err
			}
		}
	}
	return drain()
}
