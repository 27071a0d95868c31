package loadgen

import (
	"errors"
	"math/rand"
	"net"
	"testing"
	"time"
)

// TestDialRetry pins the chaos workers' reconnect path: a dial that
// fails a few times and then succeeds returns the connection, and a dial
// that never succeeds gives up once the budget is spent — overshooting
// it by at most one capped backoff — with the dial error wrapped.
func TestDialRetry(t *testing.T) {
	errRefused := errors.New("connection refused")
	rng := rand.New(rand.NewSource(1))

	t.Run("recovers", func(t *testing.T) {
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		calls := 0
		nc, err := dialRetry(func() (net.Conn, error) {
			if calls++; calls <= 3 {
				return nil, errRefused
			}
			return a, nil
		}, 10*time.Second, rng)
		if err != nil || nc != a {
			t.Fatalf("dialRetry = %v, %v; want the conn of the 4th dial", nc, err)
		}
		if calls != 4 {
			t.Errorf("dialed %d times, want 4", calls)
		}
	})

	t.Run("budget", func(t *testing.T) {
		const budget = 50 * time.Millisecond
		start := time.Now()
		nc, err := dialRetry(func() (net.Conn, error) { return nil, errRefused }, budget, rng)
		took := time.Since(start)
		if nc != nil || !errors.Is(err, errRefused) {
			t.Fatalf("dialRetry = %v, %v; want nil and an error wrapping %v", nc, err, errRefused)
		}
		if took < budget || took > budget+backoffCap {
			t.Errorf("gave up after %v, want within [%v, %v]", took, budget, budget+backoffCap)
		}
	})
}
