// Command fleetsmoke rehearses the fleet with real processes: it builds
// cmd/oovrd, starts a coordinator and three workers as separate OS
// processes — one of them a chronic straggler via -chaos stall — submits
// the full oovrfigures job matrix, SIGKILLs one worker mid-sweep, and
// requires the sweep to finish anyway — every Result re-verified against
// its content address and byte-identical to executing the same specs
// in-process. Along the way it scrapes the coordinator's /metrics and
// /fleet/timeline and requires the flight record to show the chaos it
// caused: nonzero lease expirations (the kill) and speculative re-issues
// (the straggler). It then SIGTERMs the survivors and checks they drain
// cleanly. CI runs it as the fleet-chaos smoke; locally:
//
//	go run ./scripts/fleetsmoke
//
// A non-zero exit means the fleet lost, corrupted, duplicated work — or
// flew blind through the chaos without recording it.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"oovr/internal/experiments"
	"oovr/internal/fleet"
	"oovr/internal/spec"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmsgprefix)
	log.SetPrefix("fleetsmoke ")
	bin := flag.String("oovrd", "", "oovrd binary to run (default: go build it into a temp dir)")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	if *bin == "" {
		dir, err := os.MkdirTemp("", "fleetsmoke")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		*bin = filepath.Join(dir, "oovrd")
		log.Printf("building %s", *bin)
		build := exec.CommandContext(ctx, "go", "build", "-o", *bin, "./cmd/oovrd")
		build.Stdout, build.Stderr = os.Stdout, os.Stderr
		if err := build.Run(); err != nil {
			log.Fatalf("build oovrd: %v", err)
		}
	}

	addr, url := freeAddr()
	// A short lease so the killed worker's in-flight spec re-queues fast,
	// and so the straggler threshold (4×lease = 2s) lands well inside w3's
	// 3s chaos stalls — the sweep must exercise speculation, not just
	// expiry.
	coord := start(ctx, *bin, "-addr", addr, "-lease", "500ms", "-drain", "10s")
	defer coord.Process.Kill()
	waitUp(ctx, url+"/stats")
	log.Printf("coordinator up on %s", url)

	w1 := start(ctx, *bin, "-worker", "-coordinator", url, "-name", "w1")
	defer w1.Process.Kill()
	w2 := start(ctx, *bin, "-worker", "-coordinator", url, "-name", "w2")
	defer w2.Process.Kill()
	// w3 stalls on every lease: it keeps heartbeating but delivers late,
	// so the coordinator must speculatively re-issue its specs.
	w3 := start(ctx, *bin, "-worker", "-coordinator", url, "-name", "w3",
		"-chaos", "stall=1,seed=7")
	defer w3.Process.Kill()

	specs := experiments.SpecMatrix(experiments.Options{}, nil)
	log.Printf("submitting %d specs", len(specs))

	// In-process reference execution runs concurrently with the fleet
	// sweep; the comparison below needs both anyway.
	expectedCh := make(chan [][]byte, 1)
	go func() {
		expected := make([][]byte, len(specs))
		for i, rs := range specs {
			m, err := rs.Run()
			if err != nil {
				log.Fatalf("local run %d: %v", i, err)
			}
			res, err := spec.NewResult(rs, m)
			if err != nil {
				log.Fatalf("local result %d: %v", i, err)
			}
			if expected[i], err = res.Encode(); err != nil {
				log.Fatalf("local encode %d: %v", i, err)
			}
		}
		expectedCh <- expected
	}()

	client := &fleet.Client{URL: url}
	sweep, err := client.Submit(ctx, spec.Jobs(specs))
	if err != nil {
		log.Fatalf("submit: %v", err)
	}

	// Kill w2 while it holds a live lease, so its death leaves a lease to
	// expire: after a fixed delay alone, a fast sweep can have handed w2
	// its last spec already.
	waitLease(url, "w2", 30*time.Second)
	log.Printf("SIGKILL worker w2 mid-sweep")
	if err := w2.Process.Kill(); err != nil {
		log.Fatalf("kill w2: %v", err)
	}
	w2.Wait()

	// Mid-chaos observation: the flight recorder must be scrapeable while
	// the fleet is in trouble, not only after it recovers.
	time.Sleep(1500 * time.Millisecond)
	mid := scrapeMetrics(url)
	log.Printf("mid-chaos: dispatched=%g expirations=%g speculative=%g pending=%g leased=%g",
		mid["oovr_fleet_dispatched_total"], mid["oovr_fleet_expirations_total"],
		mid["oovr_fleet_speculative_total"], mid["oovr_fleet_pending"], mid["oovr_fleet_leased"])

	bodies, err := client.Wait(ctx, sweep)
	if err != nil {
		log.Fatalf("sweep: %v", err)
	}
	expected := <-expectedCh
	bad := 0
	for i, b := range bodies {
		if _, err := fleet.DecodeVerifiedResult(b); err != nil {
			log.Printf("spec %d: %v", i, err)
			bad++
			continue
		}
		if !bytes.Equal(b, expected[i]) {
			log.Printf("spec %d: fleet body differs from in-process execution", i)
			bad++
		}
	}
	if bad > 0 {
		log.Fatalf("%d of %d results wrong", bad, len(bodies))
	}
	log.Printf("%d/%d results hash-verified and byte-identical to local execution", len(bodies), len(specs))

	// The flight record must show the chaos this run caused: w2's SIGKILL
	// abandoned live leases (expirations), and w3's stalls forced
	// speculative re-issues.
	final := scrapeMetrics(url)
	if final["oovr_fleet_expirations_total"] <= 0 {
		log.Fatalf("oovr_fleet_expirations_total = %g after killing a worker holding leases",
			final["oovr_fleet_expirations_total"])
	}
	if final["oovr_fleet_speculative_total"] <= 0 {
		log.Fatalf("oovr_fleet_speculative_total = %g with a chronic straggler in the fleet",
			final["oovr_fleet_speculative_total"])
	}
	kinds := timelineKinds(url)
	for _, want := range []string{"submit", "lease", "complete", "expire", "speculate"} {
		if !kinds[want] {
			log.Fatalf("timeline has no %q event (kinds seen: %v)", want, kinds)
		}
	}
	log.Printf("flight record: expirations=%g speculative=%g, timeline kinds %v",
		final["oovr_fleet_expirations_total"], final["oovr_fleet_speculative_total"], kinds)

	// Graceful drain: the survivors must exit cleanly on SIGTERM.
	for _, p := range []struct {
		name string
		cmd  *exec.Cmd
	}{{"w1", w1}, {"w3", w3}, {"coordinator", coord}} {
		p.cmd.Process.Signal(syscall.SIGTERM)
		if err := waitFor(p.cmd, 15*time.Second); err != nil {
			log.Fatalf("%s did not drain cleanly: %v", p.name, err)
		}
		log.Printf("%s drained cleanly", p.name)
	}
	log.Printf("PASS")
}

func start(ctx context.Context, bin string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Start(); err != nil {
		log.Fatalf("start %v: %v", args, err)
	}
	return cmd
}

// freeAddr reserves an ephemeral port and frees it for oovrd to bind —
// racy in principle, good enough for a smoke run.
func freeAddr() (addr, url string) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	addr = l.Addr().String()
	l.Close()
	return addr, "http://" + addr
}

func waitUp(ctx context.Context, url string) {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if ctx.Err() != nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	log.Fatalf("coordinator never answered on %s", url)
}

// scrapeMetrics pulls GET /metrics and returns every unlabeled series as
// name → value (labeled series are skipped; the assertions here only need
// the fleet totals).
func scrapeMetrics(url string) map[string]float64 {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		log.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			log.Fatalf("unparsable metric line %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// waitLease polls GET /metrics until the named worker holds a live lease.
func waitLease(url, worker string, timeout time.Duration) {
	prefix := `oovr_fleet_worker_live_leases{worker="` + worker + `"} `
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		resp, err := http.Get(url + "/metrics")
		if err != nil {
			log.Fatalf("scrape /metrics: %v", err)
		}
		held := false
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
				n, err := strconv.ParseFloat(v, 64)
				held = err == nil && n > 0
				break
			}
		}
		resp.Body.Close()
		if held {
			return
		}
	}
	log.Fatalf("worker %s held no lease within %v of the sweep", worker, timeout)
}

// timelineKinds pulls GET /fleet/timeline and returns the set of event
// kinds the flight record holds.
func timelineKinds(url string) map[string]bool {
	resp, err := http.Get(url + "/fleet/timeline")
	if err != nil {
		log.Fatalf("scrape /fleet/timeline: %v", err)
	}
	defer resp.Body.Close()
	var events []fleet.TimelineEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		log.Fatalf("decode timeline: %v", err)
	}
	kinds := map[string]bool{}
	for _, ev := range events {
		kinds[ev.Kind] = true
	}
	return kinds
}

func waitFor(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("still running after %v", timeout)
	}
}
