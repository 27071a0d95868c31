package wal_test

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// failStopChild names the fault a re-executed test binary injects; the
// parent test sets it, nothing else does.
const failStopChild = "WAL_FAILSTOP_CHILD_FAULT"

// TestFailStopUnderOverlap checks that a durable server fail-stops when
// a cut's sync fails while, or after, its shards apply the cut: the
// fault waits until the write is visible in the map (LEN on a second
// connection) and only then fails the zero fill or the fsync. The
// process must die before the cut's reply is written. A child process
// runs the server, since the fail-stop is a panic on the commit
// goroutine; the parent checks how it ended.
func TestFailStopUnderOverlap(t *testing.T) {
	if op := os.Getenv(failStopChild); op != "" {
		failStopChildMain(op, os.Getenv(failStopChild+"_DIR"))
		return
	}
	for _, op := range []string{"sync", "fill"} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			cmd := exec.Command(os.Args[0], "-test.run=^TestFailStopUnderOverlap$")
			cmd.Env = append(os.Environ(), failStopChild+"="+op, failStopChild+"_DIR="+dir)
			out, err := cmd.CombinedOutput()
			if _, died := err.(*exec.ExitError); !died {
				t.Fatalf("child did not die (%v):\n%s", err, out)
			}
			if strings.Contains(string(out), "REPLY WRITTEN") {
				t.Fatalf("the cut's reply was written before the process ended:\n%s", out)
			}
			if want := "server: wal sync failed"; !strings.Contains(string(out), want) ||
				!strings.Contains(string(out), "injected "+op+" error") {
				t.Fatalf("child output lacks %q and the injected %s error:\n%s", want, op, out)
			}
			// What the dead process left is a recoverable log.
			l, rec, err := wal.Open(wal.Options{Dir: dir, Logf: t.Logf})
			if err != nil {
				t.Fatalf("Open after fail-stop: %v", err)
			}
			defer l.Close()
			if err := rec.Replay(func([]wal.Record) error { return nil }); err != nil {
				t.Fatalf("Replay after fail-stop: %v", err)
			}
		})
	}
}

// failStopChildMain serves one durable server whose log fails op once
// the first SET is applied, sends that SET, and reports a reply if one
// arrives. The expected end is the server's panic.
func failStopChildMain(op, dir string) {
	log, rec, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		fmt.Println("child: wal.Open:", err)
		os.Exit(0)
	}
	srv := server.New(server.Config{Shards: 2, P: 2, WAL: log, SnapshotBytes: -1})
	if _, err := srv.Recover(rec); err != nil {
		fmt.Println("child: Recover:", err)
		os.Exit(0)
	}
	dial := func() *wire.Client {
		nc, err := srv.Pipe()
		if err != nil {
			fmt.Println("child: Pipe:", err)
			os.Exit(0)
		}
		return wire.NewClient(nc)
	}
	probe, writer := dial(), dial()
	var armed atomic.Bool
	armed.Store(true)
	wal.SetFault(log, func(o string) error {
		if o != op || !armed.CompareAndSwap(true, false) {
			return nil
		}
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if n, err := probe.Len(); err == nil && n == 1 {
				return errors.New("injected " + op + " error")
			}
		}
		fmt.Println("child: the SET never reached the map")
		os.Exit(0)
		return nil
	})
	replied := make(chan error, 1)
	// A value that nearly uses up the segment's first fill makes the
	// cut's sync fill ahead too.
	go func() { replied <- writer.Set("k", strings.Repeat("v", wal.ZeroStep-wal.ZeroStep/32)) }()
	select {
	case err := <-replied:
		fmt.Println("REPLY WRITTEN:", err)
	case <-time.After(20 * time.Second):
		fmt.Println("child: no fail-stop within 20s")
	}
	os.Exit(0)
}
