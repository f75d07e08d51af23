package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"
)

// daemonArg, as the first argument, makes the test binary run dufpd's
// main instead of the tests, so a test can start the real daemon as a
// child process and signal it.
const daemonArg = "-run-dufpd"

func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == daemonArg {
		os.Args = append(os.Args[:1], os.Args[2:]...)
		os.Exit(daemonMain())
	}
	os.Exit(m.Run())
}

// TestSignalAsSoonAsHealthy sends SIGINT the moment /v1/healthz first
// answers and requires dufpd to drain and exit 0, not die of the
// signal's default action: the handler must be installed before the
// listener serves anything.
func TestSignalAsSoonAsHealthy(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("needs SIGINT delivery to a child process")
	}
	for round := 0; round < 3; round++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()

		// stderr is read only after Wait, once the copying is done.
		var stderr bytes.Buffer
		cmd := exec.Command(os.Args[0], daemonArg, "-listen", addr, "-data-dir", t.TempDir(), "-parallel", "1")
		cmd.Stderr = &stderr
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		client := &http.Client{Timeout: time.Second}
		deadline := time.Now().Add(30 * time.Second)
		for {
			resp, err := client.Get("http://" + addr + "/v1/healthz")
			if err == nil {
				resp.Body.Close()
				break
			}
			if time.Now().After(deadline) {
				cmd.Process.Kill()
				cmd.Wait()
				t.Fatalf("healthz never answered: %v\n%s", err, stderr.String())
			}
			time.Sleep(200 * time.Microsecond)
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("round %d: dufpd exited with %v, want a clean drain\n%s", round, err, stderr.String())
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			<-done
			t.Fatalf("round %d: dufpd did not exit after SIGINT\n%s", round, stderr.String())
		}
		if log := stderr.String(); !strings.Contains(log, "draining") || !strings.Contains(log, "bye") {
			t.Fatalf("round %d: dufpd did not drain:\n%s", round, log)
		}
	}
}
