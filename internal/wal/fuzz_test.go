package wal

import (
	"bytes"
	"io"
	"testing"
)

// FuzzWALRecord drives the frame reader with arbitrary bytes (it must
// never panic, and must never yield a frame it didn't verify) and
// round-trips frames built from fuzz-derived records.
func FuzzWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("PWSWAL1\n garbage"))
	f.Add(appendFrame(nil, []Record{{Key: "k", Val: "v"}}))
	f.Add(appendFrame(nil, []Record{{Key: "k", Del: true}, {Key: "", Val: ""}}))
	f.Add(appendFrame(appendFrame(nil, nil), []Record{{Key: "a", Val: "b"}}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	// A frame and then the zero fill a crash leaves past it.
	f.Add(append(appendFrame(nil, []Record{{Key: "k", Val: "v"}}), make([]byte, 64)...))

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Arbitrary bytes through the scanner: every returned frame
		// passed a CRC, so on random input it should essentially always
		// stop with EOF or a torn error — and never panic or loop.
		sc := newFrameScanner(bytes.NewReader(data), 0)
		prevOff := int64(-1)
		for {
			_, off, err := sc.next()
			if err != nil {
				if err != io.EOF && !IsTorn(err) {
					t.Fatalf("scanner returned non-torn, non-EOF error: %v", err)
				}
				break
			}
			if off <= prevOff {
				t.Fatalf("scanner did not advance: %d -> %d", prevOff, off)
			}
			prevOff = off
		}

		// 2. Round-trip: carve records out of the fuzz input, encode,
		// scan back, compare.
		var recs []Record
		for i := 0; i+1 < len(data) && len(recs) < 64; {
			klen := int(data[i]) % 16
			del := data[i+1]&1 == 1
			i += 2
			if i+klen > len(data) {
				klen = len(data) - i
			}
			key := string(data[i : i+klen])
			i += klen
			r := Record{Key: key, Del: del}
			if !del {
				vlen := klen * 2
				if i+vlen > len(data) {
					vlen = len(data) - i
				}
				r.Val = string(data[i : i+vlen])
				i += vlen
			}
			recs = append(recs, r)
			i++
		}
		frame := appendFrame(nil, recs)
		sc = newFrameScanner(bytes.NewReader(frame), 0)
		got, _, err := sc.next()
		if err != nil {
			t.Fatalf("valid frame failed to scan: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("round-trip length: got %d want %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d: got %+v want %+v", i, got[i], recs[i])
			}
		}
		if _, _, err := sc.next(); err != io.EOF {
			t.Fatalf("expected clean EOF after single frame, got %v", err)
		}
	})
}
