package wal

// SetFault installs the log's fault seam for the fail-stop tests in
// package wal_test: f runs before each zero-fill ("fill") and each
// fsync ("sync") of the active segment, and its error stands in for
// that call's.
func SetFault(l *Log, f func(op string) error) {
	l.mu.Lock()
	l.fault = f
	l.mu.Unlock()
}

// ZeroStep is how far past its last frame a segment is zero-filled.
const ZeroStep = zeroStep
