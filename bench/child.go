package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/wire"
)

// buildWsd compiles cmd/wsd into dir and returns the binary's path.
func buildWsd(root, dir string) (string, error) {
	bin := filepath.Join(dir, "wsd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wsd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wsd: %v\n%s", err, out)
	}
	return bin, nil
}

var (
	serveRe = regexp.MustCompile(`wsd: serving on (\S+)`)
	adminRe = regexp.MustCompile(`wsd: admin endpoint on http://(\S+)`)
)

// logSniffer is the child's stderr: everything goes to the log file,
// and the listen addresses wsd prints at start-up are picked out of it.
type logSniffer struct {
	mu    sync.Mutex
	f     *os.File
	buf   []byte // unscanned tail, until the serving line has been seen
	admin string
	addr  chan string // receives the wire address once
}

func (s *logSniffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.addr != nil {
		s.buf = append(s.buf, p...)
		for {
			nl := bytes.IndexByte(s.buf, '\n')
			if nl < 0 {
				break
			}
			line := s.buf[:nl]
			s.buf = s.buf[nl+1:]
			if m := adminRe.FindSubmatch(line); m != nil {
				s.admin = string(m[1])
			}
			// The admin line precedes the serving line, so the serving
			// line ends the sniffing.
			if m := serveRe.FindSubmatch(line); m != nil {
				s.addr <- string(m[1])
				s.addr, s.buf = nil, nil
				break
			}
		}
	}
	return s.f.Write(p)
}

// wsdProc is one spawned wsd child.
type wsdProc struct {
	cmd     *exec.Cmd
	addr    string // wire protocol address
	admin   string // admin HTTP address ("" without -admin)
	logPath string
	log     *os.File
	execAt  time.Time
	exited  chan struct{} // closed once the child has been reaped
}

// startWsd execs bin with args on an ephemeral loopback port under
// GOMAXPROCS=procs and waits until it listens.
func startWsd(bin string, procs int, logPath string, args ...string) (*wsdProc, error) {
	f, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	sn := &logSniffer{f: f, addr: make(chan string, 1)}
	addrc := sn.addr
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = sn
	// A bench that dies without cleaning up (Ctrl-C, a panic) must not
	// leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &wsdProc{cmd: cmd, logPath: logPath, log: f, execAt: time.Now(), exited: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, fmt.Errorf("exec %s: %w", bin, err)
	}
	go func() {
		cmd.Wait() // the exit status is not news: every child ends by signal
		close(p.exited)
	}()
	select {
	case p.addr = <-addrc:
		sn.mu.Lock()
		p.admin = sn.admin
		sn.mu.Unlock()
		return p, nil
	case <-p.exited:
		f.Close()
		return nil, fmt.Errorf("wsd exited during start-up; see %s", logPath)
	case <-time.After(60 * time.Second): // durable restarts replay the whole log first
		p.kill()
		return nil, fmt.Errorf("wsd did not listen within 60 s; see %s", logPath)
	}
}

func (p *wsdProc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// kill SIGKILLs the child and waits until it has been reaped.
func (p *wsdProc) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.exited
	p.log.Close()
}

// dumpAndKill is for a hung child: SIGQUIT makes the Go runtime print
// every goroutine's stack to stderr (the log file) and exit; SIGCONT
// lets a stopped process receive it. Best effort: SIGKILL follows.
func (p *wsdProc) dumpAndKill() {
	p.cmd.Process.Signal(syscall.SIGQUIT)
	p.cmd.Process.Signal(syscall.SIGCONT)
	select {
	case <-p.exited:
	case <-time.After(3 * time.Second):
	}
	p.kill()
}

// cpuTicks returns the child's utime+stime in clock ticks (field 14 and
// 15 of /proc/pid/stat; 100 ticks per second on Linux).
func (p *wsdProc) cpuTicks() int64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	rest := raw[bytes.LastIndexByte(raw, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	st, _ := strconv.ParseInt(f[12], 10, 64)
	return ut + st
}

const ticksPerSecond = 100

// rssPeakMB returns the child's peak resident set (VmHWM) in MiB.
func (p *wsdProc) rssPeakMB() float64 {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// wireConn is one client connection with its codec halves. The reader's
// arena is recycled after every pipeline, so steady-state decoding does
// not allocate.
type wireConn struct {
	nc net.Conn
	r  *wire.Reader
	w  *wire.Writer
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &wireConn{nc: nc, r: wire.NewReader(nc), w: wire.NewWriter(nc)}, nil
}

// dirBytes sums the sizes of the regular files directly inside dir (the
// WAL segments and checkpoints of a data directory).
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
