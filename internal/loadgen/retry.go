package loadgen

// Dial retry for the chaos harness: its workers ride through a server
// SIGKILL and restart by redialing with capped exponential backoff and
// full jitter, so a fleet of reconnecting workers does not stampede the
// just-restarted server in lockstep. The load loop (Run, Preload) dials
// once and fails fast.

import (
	"fmt"
	"math/rand"
	"net"
	"time"
)

const (
	// backoffBase is the first retry delay; each failure doubles it.
	backoffBase = 10 * time.Millisecond
	// backoffCap bounds the exponential growth.
	backoffCap = time.Second
)

// dialRetry dials, retrying failures with capped exponential backoff
// and full jitter until the budget elapses.
func dialRetry(dial func() (net.Conn, error), budget time.Duration, rng *rand.Rand) (net.Conn, error) {
	nc, err := dial()
	if err == nil {
		return nc, nil
	}
	deadline := time.Now().Add(budget)
	delay := backoffBase
	for {
		// Full jitter: sleep U(1ms, delay] so concurrent retriers spread
		// out instead of hammering the listener in phase.
		time.Sleep(time.Millisecond + time.Duration(rng.Int63n(int64(delay))))
		if delay *= 2; delay > backoffCap {
			delay = backoffCap
		}
		if nc, err = dial(); err == nil {
			return nc, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("loadgen: dial retry budget %s exhausted: %w", budget, err)
		}
	}
}
