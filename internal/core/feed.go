package core

// feedBuffer is the engines' feed buffer (Section 6.1): a FIFO of
// operations cut into bunches of bunchCap. Input tops up the last bunch
// before starting a new one, so every bunch but the last is full and a
// cut of c bunches is simply the first min(len, c·bunchCap) operations.
// Only the engine's activation run touches it, so it needs no locking;
// the engines expose its size through an atomic for their ready
// conditions.
type feedBuffer[T any] struct {
	q        []T
	head     int // q[head:] is buffered
	bunchCap int
}

func newFeedBuffer[T any](bunchCap int) *feedBuffer[T] {
	if bunchCap < 1 {
		bunchCap = 1
	}
	return &feedBuffer[T]{bunchCap: bunchCap}
}

func (f *feedBuffer[T]) len() int { return len(f.q) - f.head }

// add appends input, first sliding the buffered tail down to the front
// once the taken prefix is at least as long as it, so the queue reuses
// its storage and each slide copies no more than was taken since the
// last one.
func (f *feedBuffer[T]) add(input []T) {
	if f.head > 0 && f.head >= f.len() {
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	f.q = append(f.q, input...)
}

// takeInto removes up to c bunches from the head of the queue and appends
// them (the cut batch) to dst — pass engine scratch with length 0 to
// reuse its backing array.
func (f *feedBuffer[T]) takeInto(c int, dst []T) []T {
	n := f.len()
	if c <= n/f.bunchCap {
		n = c * f.bunchCap
	}
	if n <= 0 {
		return dst
	}
	cut := f.q[f.head : f.head+n]
	dst = append(dst, cut...)
	clear(cut)
	if f.head += n; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return dst
}
