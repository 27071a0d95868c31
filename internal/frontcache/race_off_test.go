//go:build !race

package frontcache

// raceEnabled reports whether the race detector is active; its
// instrumentation inflates allocation counts, so the AllocsPerRun
// ceiling of TestAllocsFrontCacheFill only runs without it.
const raceEnabled = false
