package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Frame layout (one frame == one committed cut batch, the atomic unit
// of both commit and recovery):
//
//	u32le payloadLen | u32le crc32c(payload) | payload
//
// payload:
//
//	uvarint nrecords
//	nrecords times:
//	  u8 kind (0 = set, 1 = delete, 2 = expire)
//	  uvarint klen | klen key bytes
//	  [kind == 0] uvarint vlen | vlen value bytes
//	  [kind == 2] uvarint absolute unix-nano deadline
//
// The CRC covers the whole payload, so a torn write can never
// half-apply a batch: either the frame checks out and every record in
// it replays, or the frame is rejected whole. CRC32C (Castagnoli) is
// the conventional storage polynomial and hardware-accelerated on
// amd64/arm64.
const (
	frameHdrLen = 8
	// maxFramePayload rejects absurd length prefixes before they turn
	// into a giant allocation: a real frame is bounded by the coalescer
	// cut (MaxBatch ops of MaxBulk bytes); 256 MiB is far above any
	// frame this process can write, so hitting it means the header
	// bytes are garbage.
	maxFramePayload = 256 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one logged mutation: a set (the default; Key/Val), a
// delete (Del; Val unused), or an expire (Expire; Deadline is the
// ABSOLUTE unix-nano deadline armed on Key, Val unused). Deadlines are
// absolute on purpose: a relative TTL would restart on every replay,
// letting a crash-restart loop extend a key's life indefinitely —
// replaying an absolute deadline re-expires exactly on schedule, and
// one already in the past degrades to a delete. Key/Val are copied
// into the frame at append time, so callers may hand in arena-backed
// strings.
type Record struct {
	Key      string
	Val      string
	Del      bool
	Expire   bool
	Deadline int64
}

// errTorn marks a frame that cannot be trusted from its start onward:
// short header, short payload, CRC mismatch, or a payload that decodes
// inconsistently. On the newest segment this is the expected signature
// of a crash mid-write and recovery truncates it away; anywhere else it
// is genuine corruption.
var errTorn = errors.New("torn or corrupt frame")

// IsTorn reports whether err marks a torn/corrupt frame (as opposed to
// an I/O error talking to the file).
func IsTorn(err error) bool { return errors.Is(err, errTorn) }

// appendFrame encodes recs as one frame onto dst. An empty recs slice
// encodes a valid zero-record frame — segments never contain one
// (WriteBatch writes none for an empty batch), which lets snapshots use
// it as an explicit end-of-checkpoint terminator.
func appendFrame(dst []byte, recs []Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	p0 := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(recs)))
	for i := range recs {
		r := &recs[i]
		kind := byte(0)
		switch {
		case r.Del:
			kind = 1
		case r.Expire:
			kind = 2
		}
		dst = append(dst, kind)
		dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
		dst = append(dst, r.Key...)
		switch kind {
		case 0:
			dst = binary.AppendUvarint(dst, uint64(len(r.Val)))
			dst = append(dst, r.Val...)
		case 2:
			dst = binary.AppendUvarint(dst, uint64(r.Deadline))
		}
	}
	payload := dst[p0:]
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodePayload parses one CRC-verified payload, appending the records
// to dst. Key/Val strings are fresh copies (recovery is off the hot
// path; the frame buffer is reused underneath them).
func decodePayload(payload []byte, dst []Record) ([]Record, error) {
	n, w := binary.Uvarint(payload)
	if w <= 0 {
		return dst, fmt.Errorf("%w: bad record count varint", errTorn)
	}
	payload = payload[w:]
	if n > uint64(len(payload)) {
		// Each record costs at least one kind byte, so n can never
		// exceed the remaining payload length in a well-formed frame.
		return dst, fmt.Errorf("%w: record count %d exceeds payload", errTorn, n)
	}
	for i := uint64(0); i < n; i++ {
		if len(payload) == 0 {
			return dst, fmt.Errorf("%w: truncated record", errTorn)
		}
		kind := payload[0]
		payload = payload[1:]
		if kind > 2 {
			return dst, fmt.Errorf("%w: unknown record kind %d", errTorn, kind)
		}
		klen, w := binary.Uvarint(payload)
		if w <= 0 || klen > uint64(len(payload)-w) {
			return dst, fmt.Errorf("%w: bad key length", errTorn)
		}
		payload = payload[w:]
		key := string(payload[:klen])
		payload = payload[klen:]
		var val string
		var deadline int64
		switch kind {
		case 0:
			vlen, w := binary.Uvarint(payload)
			if w <= 0 || vlen > uint64(len(payload)-w) {
				return dst, fmt.Errorf("%w: bad value length", errTorn)
			}
			payload = payload[w:]
			val = string(payload[:vlen])
			payload = payload[vlen:]
		case 2:
			// Any uvarint that fits int64 is a legal deadline: the writer
			// encodes whatever deadline the server armed, so a tighter cap
			// here (an earlier revision rejected > 1<<62) would turn a
			// legally-acked long TTL into a "torn" frame at recovery —
			// truncating acked batches or failing replay outright.
			dl, w := binary.Uvarint(payload)
			if w <= 0 || dl > math.MaxInt64 {
				return dst, fmt.Errorf("%w: bad expire deadline", errTorn)
			}
			payload = payload[w:]
			deadline = int64(dl)
		}
		dst = append(dst, Record{Key: key, Val: val, Del: kind == 1, Expire: kind == 2, Deadline: deadline})
	}
	if len(payload) != 0 {
		return dst, fmt.Errorf("%w: %d trailing bytes in frame", errTorn, len(payload))
	}
	return dst, nil
}

// frameScanner reads frames sequentially from r, tracking byte
// offsets so recovery can truncate a torn tail exactly at the last
// good frame boundary. next reuses its buffers: the returned slice is
// valid until the following call.
type frameScanner struct {
	br   *bufio.Reader
	off  int64
	buf  []byte
	recs []Record
}

func newFrameScanner(r io.Reader, off int64) *frameScanner {
	return &frameScanner{br: bufio.NewReaderSize(r, 1<<16), off: off}
}

// next returns the records of the next frame and the offset at which
// the frame starts. io.EOF means a clean end at a frame boundary: the
// end of the stream, or an all-zero remainder (a segment is zero-filled
// ahead of its writer, and no frame starts with a zero header). An
// errTorn-wrapped error means the stream is invalid from the returned
// offset onward.
func (s *frameScanner) next() ([]Record, int64, error) {
	start := s.off
	var hdr [frameHdrLen]byte
	if n, err := io.ReadFull(s.br, hdr[:]); err != nil {
		if err == io.EOF || (err == io.ErrUnexpectedEOF && allZero(hdr[:n])) {
			return nil, start, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, start, fmt.Errorf("%w: short frame header", errTorn)
		}
		return nil, start, err
	}
	if allZero(hdr[:]) {
		return nil, start, s.zeroTail()
	}
	plen := binary.LittleEndian.Uint32(hdr[:4])
	wantCRC := binary.LittleEndian.Uint32(hdr[4:])
	if plen > maxFramePayload {
		return nil, start, fmt.Errorf("%w: frame payload length %d exceeds cap", errTorn, plen)
	}
	if cap(s.buf) < int(plen) {
		s.buf = make([]byte, plen)
	}
	payload := s.buf[:plen]
	if _, err := io.ReadFull(s.br, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, start, fmt.Errorf("%w: short frame payload", errTorn)
		}
		return nil, start, err
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, start, fmt.Errorf("%w: crc mismatch", errTorn)
	}
	recs, err := decodePayload(payload, s.recs[:0])
	s.recs = recs
	if err != nil {
		return nil, start, err
	}
	s.off = start + frameHdrLen + int64(plen)
	return recs, start, nil
}

// zeroTail reads the rest of the stream after a zero frame header:
// io.EOF if it is all zeros, torn if any byte is not.
func (s *frameScanner) zeroTail() error {
	if cap(s.buf) < 4096 {
		s.buf = make([]byte, 4096)
	}
	buf := s.buf[:cap(s.buf)]
	for {
		n, err := s.br.Read(buf)
		if !allZero(buf[:n]) {
			return fmt.Errorf("%w: non-zero bytes after a zero frame header", errTorn)
		}
		if err != nil {
			return err
		}
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
