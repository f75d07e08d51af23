package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"dufp/internal/api"
)

// daemon is a dufpd child process: the server the API probe drives,
// kept in its own process so its CPU and memory stay apart from the
// generator's.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	exited chan struct{}
	err    error // exit status, valid once exited is closed

	mu  sync.Mutex
	log []string // last lines of the daemon's stderr
}

// startDaemon launches dufpd over dataDir on a kernel-chosen loopback
// port and waits until /v1/healthz reports ok. It returns the time from
// launch to healthy: the daemon's set-up time. Extra arguments pass
// existing dufpd flags.
func startDaemon(ctx context.Context, bin, dataDir string, extra ...string) (*daemon, time.Duration, error) {
	args := append([]string{"-listen", "127.0.0.1:0", "-data-dir", dataDir}, extra...)
	cmd := exec.Command(bin, args...)
	// The kernel kills the daemon if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting dufpd: %w", err)
	}
	addr := make(chan string, 1)
	logDone := make(chan struct{})
	go func() {
		defer close(logDone)
		d.readLog(stderr, addr)
	}()
	go func() {
		<-logDone // Wait must not run before stderr is drained
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.exited:
		return nil, 0, fmt.Errorf("dufpd exited during start-up: %v\n%s", d.err, d.tail())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, 0, fmt.Errorf("dufpd did not report its address within 30s\n%s", d.tail())
	case <-ctx.Done():
		d.stop()
		return nil, 0, ctx.Err()
	}
	client := &http.Client{Timeout: 2 * time.Second}
	for {
		if ok := d.healthy(client); ok {
			return d, time.Since(start), nil
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, fmt.Errorf("dufpd not healthy within 30s\n%s", d.tail())
		}
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("dufpd exited during start-up: %v\n%s", d.err, d.tail())
		case <-ctx.Done():
			d.stop()
			return nil, 0, ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// readLog keeps the tail of the daemon's log and reports the address
// from its "serving Run API on <addr>" start-up line.
func (d *daemon) readLog(r io.Reader, addr chan<- string) {
	const marker = "serving Run API on "
	sent := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !sent {
			if i := strings.Index(line, marker); i >= 0 {
				a := line[i+len(marker):]
				if j := strings.IndexByte(a, ' '); j >= 0 {
					a = a[:j]
				}
				addr <- a
				sent = true
			}
		}
		d.mu.Lock()
		d.log = append(d.log, line)
		if len(d.log) > 40 {
			d.log = d.log[len(d.log)-40:]
		}
		d.mu.Unlock()
	}
}

func (d *daemon) tail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.log, "\n")
}

func (d *daemon) healthy(client *http.Client) bool {
	resp, err := client.Get(d.base + "/v1/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return false
	}
	var h api.Health
	return decodeStrict(b, &h) == nil && h.Status == "ok"
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// alive reports whether the daemon is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.exited:
		return false
	default:
		return true
	}
}

// stop drains the daemon with SIGINT, as an operator would, and waits
// for it to exit; a daemon that has not exited after 20 s is killed.
// It returns an error when the daemon had already died on its own or
// exited non-zero.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return fmt.Errorf("dufpd had exited: %v\n%s", d.err, d.tail())
	default:
	}
	_ = d.cmd.Process.Signal(os.Interrupt)
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("dufpd did not drain within 20s; killed")
	}
	// dufpd serves /v1/healthz before it installs its signal handler, so
	// a daemon stopped right after start-up can die of the SIGINT itself.
	// That is still the stop that was asked for.
	if ws, ok := d.cmd.ProcessState.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGINT {
		return nil
	}
	if d.err != nil {
		return fmt.Errorf("dufpd exit: %v\n%s", d.err, d.tail())
	}
	return nil
}
