package fleet

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"oovr/internal/multigpu"
	"oovr/internal/spec"
)

// fakeClock drives the coordinator's failure bookkeeping without waiting.
type fakeClock struct{ t time.Time }

func (f *fakeClock) now() time.Time          { return f.t }
func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func testCoordinator(t *testing.T, opt CoordinatorOptions) (*Coordinator, *fakeClock) {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	opt.now = clk.now
	return NewCoordinator(opt), clk
}

func mkSpec(seed int64) spec.RunSpec {
	return spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"},
		Frames:    1,
		Seed:      seed,
	}
}

// mkResult fabricates a canonical Result body for a spec; the coordinator
// verifies the content address, not the metrics, so zero metrics suffice
// for lease-protocol tests.
func mkResult(t testing.TB, rs spec.RunSpec) []byte {
	t.Helper()
	res, err := spec.NewResult(rs, multigpu.Metrics{Workload: "DM3-640", Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	body, err := res.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestLeaseLifecycle(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	rs1, rs2 := mkSpec(1), mkSpec(2)
	sweep, total, err := c.Submit([]spec.RunSpec{rs1, rs2})
	if err != nil || total != 2 {
		t.Fatalf("submit: %v (total %d)", err, total)
	}

	g1, err := c.Lease("w1")
	if err != nil || g1 == nil {
		t.Fatalf("lease 1: %v %v", g1, err)
	}
	g2, err := c.Lease("w1")
	if err != nil || g2 == nil || g2.Hash == g1.Hash {
		t.Fatalf("lease 2: %v %v", g2, err)
	}
	if g3, _ := c.Lease("w1"); g3 != nil {
		t.Fatalf("empty queue still granted %v", g3)
	}

	// The leased spec bytes decode back to the submitted configuration.
	got, err := spec.Decode(strings.NewReader(string(g1.Spec)))
	if err != nil {
		t.Fatalf("granted spec does not decode: %v", err)
	}
	if h, _ := got.Hash(); h != g1.Hash {
		t.Fatalf("granted spec hash %s != grant hash %s", h, g1.Hash)
	}

	if ok, reason := c.Complete(g1.Lease, mkResult(t, rs1)); !ok {
		t.Fatalf("complete 1 rejected: %s", reason)
	}
	st, ok := c.Collect(sweep)
	if !ok || st.Done || st.Completed != 1 {
		t.Fatalf("mid-sweep collect: %+v", st)
	}
	if ok, reason := c.Complete(g2.Lease, mkResult(t, rs2)); !ok {
		t.Fatalf("complete 2 rejected: %s", reason)
	}
	st, _ = c.Collect(sweep)
	if !st.Done || len(st.Results) != 2 {
		t.Fatalf("final collect: %+v", st)
	}
	for i, body := range st.Results {
		if _, err := DecodeVerifiedResult(body); err != nil {
			t.Errorf("result %d: %v", i, err)
		}
	}
}

func TestExpiryRedispatch(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	rs := mkSpec(1)
	if _, _, err := c.Submit([]spec.RunSpec{rs}); err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Lease("w1")
	if g1 == nil {
		t.Fatal("no grant")
	}
	// Within the TTL the spec stays owned.
	clk.advance(900 * time.Millisecond)
	if g, _ := c.Lease("w2"); g != nil {
		t.Fatalf("owned spec re-granted: %+v", g)
	}
	// Past it, the lease reaps and the spec re-dispatches — the retry
	// budget untouched (expiry indicts the worker, not the spec).
	clk.advance(200 * time.Millisecond)
	g2, _ := c.Lease("w2")
	if g2 == nil || g2.Hash != g1.Hash {
		t.Fatalf("expired spec not re-granted: %+v", g2)
	}
	if g2.Attempt != 0 {
		t.Fatalf("expiry consumed the retry budget: attempt %d", g2.Attempt)
	}
	if st := c.Status(); st.Expirations != 1 {
		t.Fatalf("expirations: %+v", st.Counters)
	}
	// A heartbeat keeps the new lease alive across the original TTL.
	clk.advance(800 * time.Millisecond)
	if err := c.Renew(g2.Lease); err != nil {
		t.Fatal(err)
	}
	clk.advance(800 * time.Millisecond)
	if g, _ := c.Lease("w3"); g != nil {
		t.Fatalf("renewed lease expired anyway: %+v", g)
	}
	// And the dead lease's heartbeat is rejected.
	if err := c.Renew(g1.Lease); err != ErrLeaseGone {
		t.Fatalf("stale renew: %v", err)
	}
}

func TestRetryBudgetAndQuarantine(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second, MaxAttempts: 3,
		RetryDelay: 100 * time.Millisecond, MaxRetryDelay: time.Second,
	})
	rs := mkSpec(1)
	sweep, _, _ := c.Submit([]spec.RunSpec{rs})
	for attempt := 0; attempt < 3; attempt++ {
		g, _ := c.Lease("w1")
		if g == nil {
			t.Fatalf("attempt %d: nothing granted", attempt)
		}
		if g.Attempt != attempt {
			t.Fatalf("attempt %d reported as %d", attempt, g.Attempt)
		}
		c.Fail(g.Lease, FailExec, "simulated execution failure")
		// Exponential backoff gates the re-dispatch: immediately after
		// the failure nothing is dispatchable.
		if attempt < 2 {
			if g, _ := c.Lease("w1"); g != nil {
				t.Fatalf("attempt %d re-dispatched without backoff", attempt)
			}
			clk.advance(time.Second)
		}
	}
	st, _ := c.Collect(sweep)
	if !st.Done || st.Quarantined != 1 {
		t.Fatalf("exhausted budget did not quarantine: %+v", st)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(st.Results[0], &e); err != nil || !strings.Contains(e.Error, "retry budget exhausted") {
		t.Fatalf("quarantine element: %s", st.Results[0])
	}
	if sc := c.Status(); sc.Retries != 2 || sc.Quarantined != 1 {
		t.Fatalf("counters: %+v", sc.Counters)
	}
}

func TestResolveErrorNotRetried(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	sweep, _, _ := c.Submit([]spec.RunSpec{mkSpec(1)})
	g, _ := c.Lease("w1")
	c.Fail(g.Lease, FailResolve, "unknown scheduler on worker")
	st, _ := c.Collect(sweep)
	if !st.Done || st.Quarantined != 1 {
		t.Fatalf("resolve failure retried: %+v", st)
	}
	if g, _ := c.Lease("w1"); g != nil {
		t.Fatalf("quarantined spec re-granted: %+v", g)
	}
}

func TestStragglerSpeculativeReissue(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second, StragglerAfter: 3 * time.Second,
	})
	rs := mkSpec(1)
	sweep, _, _ := c.Submit([]spec.RunSpec{rs})
	g1, _ := c.Lease("w1")
	// w1 heartbeats diligently but never finishes.
	for i := 0; i < 4; i++ {
		clk.advance(900 * time.Millisecond)
		if err := c.Renew(g1.Lease); err != nil {
			t.Fatalf("renew %d: %v", i, err)
		}
	}
	// Past the straggler threshold the spec re-issues — to another
	// worker only.
	if g, _ := c.Lease("w1"); g != nil {
		t.Fatalf("straggler re-issued to its own worker: %+v", g)
	}
	g2, _ := c.Lease("w2")
	if g2 == nil || g2.Hash != g1.Hash {
		t.Fatalf("no speculative re-issue: %+v", g2)
	}
	if st := c.Status(); st.Speculative != 1 {
		t.Fatalf("speculative counter: %+v", st.Counters)
	}
	// Two live leases is the cap.
	if g, _ := c.Lease("w3"); g != nil {
		t.Fatalf("third concurrent lease granted: %+v", g)
	}
	// First valid result wins; the straggler's arrives late and drops.
	if ok, reason := c.Complete(g2.Lease, mkResult(t, rs)); !ok {
		t.Fatalf("speculative result rejected: %s", reason)
	}
	if ok, reason := c.Complete(g1.Lease, mkResult(t, rs)); ok || reason != "duplicate" {
		t.Fatalf("late duplicate accepted: %v %s", ok, reason)
	}
	st, _ := c.Collect(sweep)
	if !st.Done || st.Completed != 1 {
		t.Fatalf("collect: %+v", st)
	}
	if sc := c.Status(); sc.Completed != 1 || sc.Duplicates != 1 {
		t.Fatalf("counters: %+v", sc.Counters)
	}
}

func TestLateResultFromExpiredLeaseWins(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	rs := mkSpec(1)
	sweep, _, _ := c.Submit([]spec.RunSpec{rs})
	g1, _ := c.Lease("w1")
	clk.advance(2 * time.Second) // w1 presumed dead; spec re-queues
	g2, _ := c.Lease("w2")
	if g2 == nil {
		t.Fatal("expired spec not re-dispatched")
	}
	// w1 was merely slow: its valid result lands first and wins.
	if ok, reason := c.Complete(g1.Lease, mkResult(t, rs)); !ok {
		t.Fatalf("late valid result rejected: %s", reason)
	}
	if ok, reason := c.Complete(g2.Lease, mkResult(t, rs)); ok || reason != "duplicate" {
		t.Fatalf("second result not deduplicated: %v %s", ok, reason)
	}
	if st, _ := c.Collect(sweep); !st.Done || st.Completed != 1 {
		t.Fatalf("collect: %+v", st)
	}
}

func TestIntegrityGate(t *testing.T) {
	c, clk := testCoordinator(t, CoordinatorOptions{
		LeaseTTL: time.Second, MaxAttempts: 3, RetryDelay: 50 * time.Millisecond,
	})
	rs := mkSpec(1)
	c.Submit([]spec.RunSpec{rs})
	g, _ := c.Lease("w1")

	// A result whose claimed address does not match its spec is refused
	// and charged to the budget like an execution failure.
	if ok, reason := c.Complete(g.Lease, corruptBody(mkResult(t, rs))); ok || !strings.Contains(reason, "integrity") {
		t.Fatalf("corrupt body accepted: %v %s", ok, reason)
	}
	if st := c.Status(); st.Corrupt != 1 || st.Retries != 1 {
		t.Fatalf("counters after corrupt: %+v", st.Counters)
	}

	// A live lease cannot launder a valid result for a different spec.
	clk.advance(time.Second)
	g2, _ := c.Lease("w1")
	if g2 == nil {
		t.Fatal("no re-dispatch after corrupt result")
	}
	other := mkSpec(99) // never submitted
	if ok, reason := c.Complete(g2.Lease, mkResult(t, other)); ok || !strings.Contains(reason, "no known task") {
		t.Fatalf("foreign result accepted: %v %s", ok, reason)
	}

	// The genuine article still lands.
	clk.advance(time.Second)
	g3, _ := c.Lease("w1")
	if g3 == nil {
		t.Fatal("no third dispatch")
	}
	if ok, reason := c.Complete(g3.Lease, mkResult(t, rs)); !ok {
		t.Fatalf("valid result rejected: %s", reason)
	}
}

func TestDedupeAcrossSweeps(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{LeaseTTL: time.Second})
	rs := mkSpec(1)
	s1, _, _ := c.Submit([]spec.RunSpec{rs, mkSpec(2)})
	s2, _, _ := c.Submit([]spec.RunSpec{rs}) // same content address
	if st := c.Status(); st.Submitted != 2 || st.Deduped != 1 {
		t.Fatalf("dedupe counters: %+v", st.Counters)
	}
	g1, _ := c.Lease("w1")
	g2, _ := c.Lease("w1")
	c.Complete(g1.Lease, mkResult(t, mustDecode(t, g1.Spec)))
	c.Complete(g2.Lease, mkResult(t, mustDecode(t, g2.Spec)))
	for _, sweep := range []string{s1, s2} {
		if st, ok := c.Collect(sweep); !ok || !st.Done {
			t.Fatalf("sweep %s: %+v", sweep, st)
		}
	}
}

func TestSubmitUnresolvableSpecQuarantines(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{})
	bad := spec.RunSpec{Workload: spec.WorkloadRef{Name: "no-such-bench"},
		Scheduler: spec.SchedulerRef{Name: "baseline"}}
	sweep, total, err := c.Submit([]spec.RunSpec{mkSpec(1), bad})
	if err != nil || total != 2 {
		t.Fatalf("submit: %v", err)
	}
	g, _ := c.Lease("w1")
	c.Complete(g.Lease, mkResult(t, mkSpec(1)))
	st, _ := c.Collect(sweep)
	if !st.Done || st.Quarantined != 1 {
		t.Fatalf("unhashable spec not quarantined in place: %+v", st)
	}
	if _, err := DecodeVerifiedResult(st.Results[1]); err == nil || !strings.Contains(err.Error(), "no-such-bench") {
		t.Fatalf("quarantine element: %s (%v)", st.Results[1], err)
	}
}

func TestDrainStopsLeasing(t *testing.T) {
	c, _ := testCoordinator(t, CoordinatorOptions{})
	c.Submit([]spec.RunSpec{mkSpec(1)})
	c.Drain()
	if _, err := c.Lease("w1"); err != ErrDraining {
		t.Fatalf("draining coordinator granted a lease: %v", err)
	}
}

func mustDecode(t *testing.T, raw json.RawMessage) spec.RunSpec {
	t.Helper()
	s, err := spec.Decode(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestChaosParseAndDeterminism(t *testing.T) {
	c, err := ParseChaos("crash=0.2,stall=0.1,corrupt=0.05,seed=7")
	if err != nil {
		t.Fatal(err)
	}
	if c.Crash != 0.2 || c.Stall != 0.1 || c.Corrupt != 0.05 || c.Seed != 7 {
		t.Fatalf("parsed %+v", c)
	}
	for _, bad := range []string{"crash", "crash=2", "boom=0.1", "crash=0.6,stall=0.6", "crash=NaN", "crash=nan,stall=0.5"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Errorf("%q parsed", bad)
		}
	}
	// Same (seed, hash, try) → same decision; the distribution respects
	// the knobs roughly.
	counts := map[chaosAction]int{}
	for i := 0; i < 2000; i++ {
		h := mkHash(i)
		a := c.decide(h, 0)
		if b := c.decide(h, 0); a != b {
			t.Fatalf("decision not deterministic for %s", h)
		}
		counts[a]++
	}
	if f := float64(counts[chaosCrash]) / 2000; f < 0.15 || f > 0.25 {
		t.Errorf("crash rate %.3f far from 0.2", f)
	}
	if f := float64(counts[chaosStall]) / 2000; f < 0.06 || f > 0.14 {
		t.Errorf("stall rate %.3f far from 0.1", f)
	}
	// A different try re-rolls — a crash-looping worker would otherwise
	// never get past a doomed spec.
	differs := false
	for i := 0; i < 100 && !differs; i++ {
		differs = c.decide(mkHash(i), 0) != c.decide(mkHash(i), 1)
	}
	if !differs {
		t.Error("decisions identical across tries")
	}
}

func mkHash(i int) string {
	return strings.Repeat("0", 60) + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + "zz"
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	a := NewBackoff(100*time.Millisecond, time.Second, 42)
	b := NewBackoff(100*time.Millisecond, time.Second, 42)
	for i := 0; i < 10; i++ {
		da, db := a.Delay(i), b.Delay(i)
		if da != db {
			t.Fatalf("attempt %d: %v != %v for equal seeds", i, da, db)
		}
		if da < 50*time.Millisecond || da > 1500*time.Millisecond {
			t.Fatalf("attempt %d: delay %v outside jittered bounds", i, da)
		}
	}
	// Later attempts back off further on average.
	if a.Delay(8) < a.Delay(0)/2 {
		t.Error("no growth across attempts")
	}
}
