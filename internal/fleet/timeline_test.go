package fleet

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"oovr/internal/obs"
	"oovr/internal/spec"
)

// kinds extracts the event kinds for one hash, in order.
func kinds(evs []TimelineEvent) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

// TestTimelineRecordsLeaseLifecycle drives one spec through submit →
// lease → expire → re-lease → complete and checks the flight record tells
// that story, filtered by hash.
func TestTimelineRecordsLeaseLifecycle(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	rs := mkSpec(1)
	if _, _, err := c.Submit([]spec.RunSpec{rs}); err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease("w1")
	if err != nil || g == nil {
		t.Fatalf("lease: %v %v", g, err)
	}
	clk.advance(2 * time.Second) // past the TTL: next contact reaps it
	g2, err := c.Lease("w2")
	if err != nil || g2 == nil {
		t.Fatalf("re-lease after expiry: %v %v", g2, err)
	}
	if ok, reason := c.Complete(g2.Lease, mkResult(t, rs)); !ok {
		t.Fatalf("complete rejected: %s", reason)
	}

	got := kinds(c.Timeline(g.Hash, 0))
	want := []string{"submit", "lease", "expire", "lease", "complete"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("timeline for %.12s… = %v, want %v", g.Hash, got, want)
	}

	// Workers and leases are attributed.
	evs := c.Timeline(g.Hash, 0)
	if evs[1].Worker != "w1" || evs[2].Worker != "w1" || evs[3].Worker != "w2" {
		t.Errorf("worker attribution wrong: %+v", evs)
	}
	if evs[4].Kind != "complete" || evs[4].Worker != "w2" {
		t.Errorf("complete attribution wrong: %+v", evs[4])
	}

	// Limit keeps the newest events.
	if got := kinds(c.Timeline(g.Hash, 2)); strings.Join(got, ",") != "lease,complete" {
		t.Errorf("limited timeline = %v", got)
	}
}

// TestTimelineSpeculationAndRetry covers the straggler and failure paths.
func TestTimelineSpeculationAndRetry(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second, StragglerAfter: 2 * time.Second, MaxAttempts: 2,
	})
	rs := mkSpec(1)
	c.Submit([]spec.RunSpec{rs})
	g, _ := c.Lease("w1")

	// Keep heartbeating past the straggler threshold; a second worker's
	// poll speculates.
	clk.advance(900 * time.Millisecond)
	c.Renew(g.Lease)
	clk.advance(900 * time.Millisecond)
	c.Renew(g.Lease)
	clk.advance(300 * time.Millisecond)
	c.Renew(g.Lease)
	gs, err := c.Lease("w2")
	if err != nil || gs == nil {
		t.Fatalf("speculation expected: %v %v", gs, err)
	}
	// The speculative attempt fails; within budget it records a retry.
	c.Fail(gs.Lease, FailExec, "boom")

	got := kinds(c.Timeline(g.Hash, 0))
	joined := strings.Join(got, ",")
	if !strings.Contains(joined, "speculate") {
		t.Errorf("timeline misses speculate: %v", got)
	}
	if !strings.Contains(joined, "retry") {
		t.Errorf("timeline misses retry: %v", got)
	}
}

// TestTimelineHTTP covers the /fleet/timeline endpoint: filters, limits,
// bad input.
func TestTimelineHTTP(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	rs := mkSpec(1)
	c.Submit([]spec.RunSpec{rs})
	g, _ := c.Lease("w1")
	c.Complete(g.Lease, mkResult(t, rs))

	ts := httptest.NewServer(c)
	defer ts.Close()

	get := func(path string) ([]TimelineEvent, int) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var evs []TimelineEvent
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(&evs); err != nil {
				t.Fatal(err)
			}
		}
		return evs, resp.StatusCode
	}

	evs, code := get("/fleet/timeline")
	if code != 200 || len(evs) != 3 {
		t.Fatalf("timeline: HTTP %d, %d events %v", code, len(evs), evs)
	}
	evs, _ = get("/fleet/timeline?hash=" + g.Hash + "&limit=1")
	if len(evs) != 1 || evs[0].Kind != "complete" {
		t.Errorf("filtered timeline = %v", evs)
	}
	evs, _ = get("/fleet/timeline?hash=nosuch")
	if len(evs) != 0 {
		t.Errorf("unknown hash returned events: %v", evs)
	}
	if _, code := get("/fleet/timeline?limit=bogus"); code != 400 {
		t.Errorf("bad limit: HTTP %d, want 400", code)
	}
	if _, code := get("/fleet/timeline?limit=2.5"); code != 400 {
		t.Errorf("fractional limit: HTTP %d, want 400", code)
	}
	// Integer limits clamp to [1, timelineCap] rather than erroring or
	// falling through as "everything".
	evs, code = get("/fleet/timeline?limit=0")
	if code != 200 || len(evs) != 1 {
		t.Errorf("limit=0: HTTP %d, %d events, want 200 with 1 (clamped up)", code, len(evs))
	}
	evs, code = get("/fleet/timeline?limit=-5")
	if code != 200 || len(evs) != 1 {
		t.Errorf("limit=-5: HTTP %d, %d events, want 200 with 1 (clamped up)", code, len(evs))
	}
	evs, code = get(fmt.Sprintf("/fleet/timeline?limit=%d", timelineCap*10))
	if code != 200 || len(evs) != 3 {
		t.Errorf("huge limit: HTTP %d, %d events, want 200 with all 3 (clamped down)", code, len(evs))
	}
}

// TestTimelineRingBounded overwrites oldest-first past the cap.
func TestTimelineRingBounded(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	c.mu.Lock()
	for i := 0; i < timelineCap+10; i++ {
		c.record("submit", "h", "", 0, 0, "")
	}
	c.mu.Unlock()
	evs := c.Timeline("", 0)
	if len(evs) != timelineCap {
		t.Fatalf("ring holds %d events, want %d", len(evs), timelineCap)
	}
	if evs[0].Seq != 11 || evs[len(evs)-1].Seq != timelineCap+10 {
		t.Errorf("ring kept wrong window: seq %d..%d", evs[0].Seq, evs[len(evs)-1].Seq)
	}
}

// TestCoordinatorMetrics registers the coordinator in a registry and
// checks counters, queue gauges and per-worker health appear in a scrape.
func TestCoordinatorMetrics(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	reg := obs.NewRegistry()
	c.RegisterMetrics(reg)

	rs1, rs2 := mkSpec(1), mkSpec(2)
	c.Submit([]spec.RunSpec{rs1, rs2})
	g, _ := c.Lease("w1")
	c.Complete(g.Lease, mkResult(t, rs1))
	clk.advance(time.Millisecond)

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{
		"oovr_fleet_submitted_total 2",
		"oovr_fleet_dispatched_total 1",
		"oovr_fleet_completed_total 1",
		"oovr_fleet_pending 1",
		"oovr_fleet_done 1",
		"oovr_fleet_sweeps 1",
		`oovr_fleet_worker_live_leases{worker="w1"} 0`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("scrape missing %q:\n%s", line, text)
		}
	}
	if !strings.Contains(text, `oovr_fleet_worker_last_seen_seconds{worker="w1"}`) {
		t.Errorf("scrape missing worker last_seen gauge:\n%s", text)
	}
	for _, n := range reg.Names() {
		if !strings.HasPrefix(n, "oovr_fleet_") {
			t.Errorf("coordinator metric %q escapes the oovr_fleet_ namespace", n)
		}
	}
}

// TestWorkerMetrics registers a worker's stats and checks the scrape.
func TestWorkerMetrics(t *testing.T) {
	w := &Worker{}
	w.Stats.Leases.Add(3)
	w.Stats.Completed.Add(2)
	w.Stats.RPCRetries.Add(5)
	reg := obs.NewRegistry()
	w.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, line := range []string{
		"oovr_worker_leases_total 3",
		"oovr_worker_completed_total 2",
		"oovr_worker_rpc_retries_total 5",
		"oovr_worker_idle_sleeps_total 0",
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("scrape missing %q:\n%s", line, text)
		}
	}
}
