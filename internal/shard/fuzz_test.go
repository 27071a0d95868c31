package shard

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
)

// fuzzKey names the key byte b of a range-page fuzz input.
func fuzzKey(b byte) string { return fmt.Sprintf("k%03d", b) }

// FuzzRangePage checks cursor pages of a 4-shard map under TTL against a
// sorted model. The input decodes, three bytes an op (kind, key, arg),
// into inserts, deletes, expires with a future, past or zero deadline, and
// clock advances; the ops between two advances are applied as one batch,
// which per key is the ops in input order. Then the whole range is paged
// from a fuzzed start, xlo and limit (0: unbounded), and each page must be
// the model's next limit live keys with their values, reporting more only
// when it is full.
func FuzzRangePage(f *testing.F) {
	// The paged-ghost shape: 200 keys, three in four expired, limit 7.
	var seed []byte
	for i := range 200 {
		seed = append(seed, 0, byte(i), byte(i))
	}
	for i := range 200 {
		if i%4 != 0 {
			seed = append(seed, 2, byte(i), 9)
		}
	}
	seed = append(seed, 4, 0, 20)
	f.Add(seed, byte(0), false, uint8(7))
	f.Add([]byte{0, 1, 1, 0, 2, 2, 2, 1, 0, 4, 0, 5, 3, 2, 0, 0, 3, 3}, byte(1), true, uint8(1))

	f.Fuzz(func(t *testing.T, ops []byte, start byte, xlo bool, limit uint8) {
		clk := newFakeClock(1000)
		m := New[string, string](Config{Shards: 4, P: 2, Clock: clk.fn()})
		defer m.Close()

		type item struct {
			val string
			dl  int64 // 0: no TTL
		}
		model := map[string]item{}
		live := func(k string) bool {
			it, ok := model[k]
			return ok && (it.dl == 0 || it.dl > clk.now.Load())
		}
		var batch []core.Op[string, string]
		var wantOK []bool
		flush := func() {
			for j, r := range m.Apply(batch) {
				if r.OK != wantOK[j] {
					t.Fatalf("%v on %s: OK=%v, model %v", batch[j].Kind, batch[j].Key, r.OK, wantOK[j])
				}
			}
			batch, wantOK = batch[:0], wantOK[:0]
		}
		for i := 0; i+2 < len(ops); i += 3 {
			k, arg := fuzzKey(ops[i+1]), int64(ops[i+2])
			now := clk.now.Load()
			was := live(k)
			switch ops[i] % 6 {
			case 0:
				v := fmt.Sprint(i)
				batch = append(batch, core.Op[string, string]{Kind: core.OpInsert, Key: k, Val: v})
				model[k] = item{val: v}
			case 1:
				batch = append(batch, core.Op[string, string]{Kind: core.OpDelete, Key: k})
				delete(model, k)
			case 2, 3, 5:
				dl := now + 1 + arg // future
				if ops[i]%6 == 3 {
					dl = max(1, now-arg) // past: an immediate delete
				} else if ops[i]%6 == 5 {
					dl = 0 // clears the TTL
				}
				batch = append(batch, core.Op[string, string]{Kind: core.OpExpire, Key: k, Deadline: dl})
				if !was || (dl != 0 && dl <= now) {
					delete(model, k) // absent, expired (the engine retires it), or past
				} else {
					model[k] = item{val: model[k].val, dl: dl}
				}
			case 4:
				flush()
				clk.now.Add(arg)
				continue
			}
			wantOK = append(wantOK, was)
		}
		flush()

		var want []string
		for k := range model {
			if live(k) {
				want = append(want, k)
			}
		}
		slices.Sort(want)
		lim := int(limit % 17)
		cur, x := fuzzKey(start), xlo
		for pages := 0; ; pages++ {
			if pages > len(want)+1 {
				t.Fatal("paging did not terminate")
			}
			rest := want[:0:0]
			for _, k := range want {
				if k > cur || (k == cur && !x) {
					rest = append(rest, k)
				}
			}
			exp := rest
			if lim > 0 && len(exp) > lim {
				exp = exp[:lim]
			}
			page, more := m.RangePage(cur, x, "z", lim, nil)
			got := make([]string, len(page))
			for j, e := range page {
				got[j] = e.Key
				if e.Val != model[e.Key].val {
					t.Fatalf("page %d: %s = %q, model %q", pages, e.Key, e.Val, model[e.Key].val)
				}
			}
			if !slices.Equal(got, exp) {
				t.Fatalf("page %d from (%s, xlo=%v) limit %d = %v, want %v", pages, cur, x, lim, got, exp)
			}
			if more && (lim == 0 || len(page) != lim) {
				t.Fatalf("page %d reports more with %d pairs at limit %d", pages, len(page), lim)
			}
			if !more {
				if len(rest) > len(exp) {
					t.Fatalf("page %d reports no more with %d live keys left", pages, len(rest)-len(exp))
				}
				return
			}
			cur, x = page[len(page)-1].Key, true
		}
	})
}
