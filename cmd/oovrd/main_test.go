package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestGracefulShutdownDrains builds the daemon, starts it, sends SIGTERM,
// and asserts it takes the drain path — printing "oovrd draining" — and
// exits 0 rather than dying on the signal.
func TestGracefulShutdownDrains(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := filepath.Join(t.TempDir(), "oovrd")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-quiet")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Report the listener banner, then the drain line, reading the pipe to
	// EOF so the daemon never blocks on a full stdout buffer.
	listening, draining := make(chan struct{}), make(chan struct{})
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			switch line := sc.Text(); {
			case strings.Contains(line, "listening"):
				close(listening)
			case line == "oovrd draining":
				close(draining)
			}
		}
	}()
	select {
	case <-listening:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never reported listening")
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-draining:
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon never reported draining after SIGTERM")
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exited with: %v", err)
		}
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatal("daemon did not exit after SIGTERM")
	}
}
