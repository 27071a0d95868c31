//go:build race

package frontcache

// raceEnabled reports whether the race detector is active.
const raceEnabled = true
