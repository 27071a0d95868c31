package twothree

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/metrics"
)

// A leaf's pos packs the tag of the Seq it is in (the top 8 bits) with its
// stamp there (the low 56), and is 0 in no Seq. An empty Seq's stamps start
// at midStamp, those pushed at the front below and those at the back above:
// a segment that never empties spends the 2^55 of one end at 10^7 pushes a
// second in over a hundred years.
const (
	stampBits = 56
	stampMask = 1<<stampBits - 1
	midStamp  = 1 << (stampBits - 1)
)

// Seq is the recency-map of a segment: its leaves in recency order, most
// recent first, as an intrusive doubly-linked list through the leaves' prev
// and next. It supports the batched front/back transfers and the removal by
// direct pointer that the working-set maps perform when shifting items
// between segments. This is Iacono's own substitution for the paper's
// recency tree (DESIGN.md "Paper fidelity: recency-maps are lists"): every
// operation is O(b) for a batch of b, and none needs the tree's span.
//
// A Seq's leaves can at the same time be those of a Tree — the segment's
// key-map — which threads them through up, a field a Seq never touches,
// and a Seq never reads a key. It does not make leaves; it is pushed the
// ones its owner built. Every leaf carries its Seq's tag and a stamp, so
// Owns is a compare and RemoveInto puts what it takes out back in recency
// order by sorting stamps. Stamps are per Seq: no counter is shared, so
// Seqs can be edited concurrently (M2's final-slab activations do).
//
// Charged work: one unit per call, plus one per leaf RemoveInto unlinks;
// Owns is one unit. A push or pop is charged for the call alone, though it
// walks its batch once: no call is charged more than the recency tree this
// list replaced was.
type Seq[K cmp.Ordered, P any] struct {
	head, tail  *Node[K, P]
	n           int
	tag         uint64 // the Seq's tag, shifted to the top of a pos
	front, back uint64 // the next stamp to take at each end: one below the lowest, the one above the highest
	cnt         *metrics.Counter
}

// NewSeq returns an empty recency sequence tagged k, 0 <= k < 255; Seqs
// whose leaves can meet, in Owns or in a transfer, must have distinct tags.
// cnt may be nil.
func NewSeq[K cmp.Ordered, P any](k int, cnt *metrics.Counter) *Seq[K, P] {
	if k < 0 || k >= 255 {
		panic(fmt.Sprintf("twothree: Seq tag %d outside 0..254", k))
	}
	return &Seq[K, P]{tag: uint64(k+1) << stampBits, cnt: cnt}
}

// Len returns the number of items.
func (s *Seq[K, P]) Len() int { return s.n }

func (s *Seq[K, P]) charge(units int) {
	if s.cnt != nil {
		s.cnt.Add(int64(units))
	}
}

// PushFrontLeaves prepends leaves (most recent first), preserving their
// identity. O(b).
func (s *Seq[K, P]) PushFrontLeaves(leaves []*Node[K, P]) { s.push(leaves, true) }

// PushBackLeaves appends leaves (most recent first), preserving their
// identity. O(b).
func (s *Seq[K, P]) PushBackLeaves(leaves []*Node[K, P]) { s.push(leaves, false) }

// push links leaves in, in order, at the front or the back, stamping them
// upwards from below the lowest stamp or from above the highest. Stamps 0
// and stampMask stay unused, so neither end's counter wraps.
func (s *Seq[K, P]) push(leaves []*Node[K, P], front bool) {
	s.charge(1)
	b := uint64(len(leaves))
	if b == 0 {
		return
	}
	if s.n == 0 {
		s.front, s.back = midStamp-1, midStamp
	}
	if b > s.front || b > stampMask-s.back {
		panic("twothree: Seq stamps exhausted")
	}
	prev, next, st := s.tail, (*Node[K, P])(nil), s.back
	if front {
		prev, next, st = nil, s.head, s.front+1-b
		s.front -= b
	} else {
		s.back += b
	}
	for _, lf := range leaves {
		lf.pos = s.tag | st
		st++
		lf.prev = prev
		if prev != nil {
			prev.next = lf
		} else {
			s.head = lf
		}
		prev = lf
	}
	prev.next = next
	if next != nil {
		next.prev = prev
	} else {
		s.tail = prev
	}
	s.n += len(leaves)
}

// PopFront removes the n most recent items (all of them if there are
// fewer) and returns them most recent first, in out[:0] (caller scratch,
// may be nil). O(n).
func (s *Seq[K, P]) PopFront(n int, out []*Node[K, P]) []*Node[K, P] {
	s.charge(1)
	n = min(max(n, 0), s.n)
	out = slices.Grow(out[:0], n)[:n]
	for i, lf := 0, s.head; i < n; i, lf = i+1, lf.next {
		out[i] = lf
	}
	return s.cut(out)
}

// PopBack removes the n least recent items (all of them if there are
// fewer) and returns them in recency order (most recent of the removed
// items first), in out[:0] (caller scratch, may be nil). O(n).
func (s *Seq[K, P]) PopBack(n int, out []*Node[K, P]) []*Node[K, P] {
	s.charge(1)
	n = min(max(n, 0), s.n)
	out = slices.Grow(out[:0], n)[:n]
	for i, lf := n-1, s.tail; i >= 0; i, lf = i-1, lf.prev {
		out[i] = lf
	}
	return s.cut(out)
}

// RemoveInto deletes the given leaves of the Seq (in any order) and returns
// them in recency order, in out, caller scratch of length len(leaves): the
// b leaves are sorted by stamp, and each is then unlinked by its own prev
// and next in O(1). O(b log b). Panics on a leaf of another Seq.
func (s *Seq[K, P]) RemoveInto(leaves []*Node[K, P], out []*Node[K, P]) []*Node[K, P] {
	s.charge(1 + len(leaves))
	out = out[:len(leaves)]
	copy(out, leaves)
	slices.SortFunc(out, func(a, b *Node[K, P]) int { return cmp.Compare(a.pos, b.pos) })
	for i, lf := range out {
		if lf.pos&^stampMask != s.tag {
			panic(fmt.Sprintf("twothree: Seq.RemoveInto: leaf %v is not in the Seq", lf.Key))
		}
		s.cut(out[i : i+1])
	}
	return out
}

// cut unlinks run, neighbouring leaves of the Seq in order, and clears
// their links and pos: they are in no Seq.
func (s *Seq[K, P]) cut(run []*Node[K, P]) []*Node[K, P] {
	if len(run) == 0 {
		return run
	}
	before, after := run[0].prev, run[len(run)-1].next
	if before != nil {
		before.next = after
	} else {
		s.head = after
	}
	if after != nil {
		after.prev = before
	} else {
		s.tail = before
	}
	for _, lf := range run {
		lf.prev, lf.next, lf.pos = nil, nil, 0
	}
	s.n -= len(run)
	return run
}

// Flatten returns all leaves in recency order. O(n).
func (s *Seq[K, P]) Flatten() []*Node[K, P] {
	out := make([]*Node[K, P], 0, s.n)
	for lf := s.head; lf != nil; lf = lf.next {
		out = append(out, lf)
	}
	return out
}

// Owns reports whether leaf is in this Seq, by its tag. O(1), charged one
// unit: it is how segments sharing a key-map tell which of them holds a
// leaf found in it.
func (s *Seq[K, P]) Owns(leaf *Node[K, P]) bool {
	s.charge(1)
	return leaf.pos&^stampMask == s.tag
}

// Validate checks the list (test hook): Len leaves from the front, each the
// prev of the next and the last one the back, all with the Seq's tag and
// with stamps increasing strictly from front to back, between the next
// stamps of the two ends.
func (s *Seq[K, P]) Validate() error {
	n := 0
	var prev *Node[K, P]
	for lf := s.head; lf != nil; prev, lf = lf, lf.next {
		if n++; n > s.n {
			return fmt.Errorf("more than Len = %d leaves from the front", s.n)
		}
		if lf.prev != prev {
			return fmt.Errorf("leaf %d (%v) has the wrong prev", n-1, lf.Key)
		}
		if lf.pos&^stampMask != s.tag {
			return fmt.Errorf("leaf %d (%v) has tag %d, the Seq %d", n-1, lf.Key, lf.pos>>stampBits, s.tag>>stampBits)
		}
		st := lf.pos & stampMask
		if st <= s.front || st >= s.back || (prev != nil && st <= prev.pos&stampMask) {
			return fmt.Errorf("leaf %d (%v) has stamp %d out of order", n-1, lf.Key, st)
		}
	}
	if n != s.n || prev != s.tail {
		return fmt.Errorf("%d leaves from the front to %p, want Len = %d to the back %p", n, prev, s.n, s.tail)
	}
	return nil
}
