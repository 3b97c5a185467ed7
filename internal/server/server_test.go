package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Options{Workers: 4, CacheEntries: 64})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, url string, rs spec.RunSpec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// TestServerMatchesImperative is the acceptance criterion: a RunSpec
// submitted to oovrd over HTTP returns Metrics byte-identical to the same
// configuration run through the imperative API, for every registered
// scheduler; resubmitting the same spec is served from the result cache.
func TestServerMatchesImperative(t *testing.T) {
	srv, ts := newTestServer(t)
	c, ok := workload.CaseByName("DM3-640")
	if !ok {
		t.Fatal("missing benchmark case")
	}
	const frames, seed = 2, 1
	for _, name := range spec.PlannerNames() {
		p, err := spec.NewPlanner(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := c.Spec.Generate(c.Width, c.Height, frames, seed)
		want := driver.Run(multigpu.New(multigpu.DefaultOptions(), sc), p)
		wantBytes, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}

		rs := spec.RunSpec{
			Workload:  spec.WorkloadRef{Name: c.Name},
			Scheduler: spec.SchedulerRef{Name: name},
			Frames:    frames,
			Seed:      seed,
		}
		resp, body := postSpec(t, ts.URL, rs)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Oovrd-Cache"); got != "miss" {
			t.Errorf("%s: first submission reported cache %q", name, got)
		}
		res, err := spec.DecodeResult(body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(res.Metrics, want) {
			t.Errorf("%s: HTTP metrics diverged from imperative run\n got %+v\nwant %+v", name, res.Metrics, want)
		}
		gotBytes, err := json.Marshal(res.Metrics)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s: canonical metric bytes differ over HTTP", name)
		}

		// Resubmission: served from the cache, byte-identical body.
		resp2, body2 := postSpec(t, ts.URL, rs)
		if got := resp2.Header.Get("X-Oovrd-Cache"); got != "hit" {
			t.Errorf("%s: resubmission reported cache %q", name, got)
		}
		if !bytes.Equal(body, body2) {
			t.Errorf("%s: cached response bytes differ from the original", name)
		}
		if resp.Header.Get("X-Oovrd-Spec-Hash") != resp2.Header.Get("X-Oovrd-Spec-Hash") {
			t.Errorf("%s: spec hash drifted between submissions", name)
		}
	}
	st := srv.Stats()
	n := int64(len(spec.PlannerNames()))
	if st.Runs != n || st.CacheHits != n || st.CacheMisses != n {
		t.Errorf("stats off: %+v (want %d runs, hits and misses)", st, n)
	}
}

// TestSingleFlight: identical specs submitted concurrently execute once.
func TestSingleFlight(t *testing.T) {
	srv, ts := newTestServer(t)
	rs := spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"},
		Frames:    1,
	}
	var wg sync.WaitGroup
	bodies := make([][]byte, 8)
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := json.Marshal(rs)
			if err != nil {
				t.Error(err)
				return
			}
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			bodies[i], _ = io.ReadAll(resp.Body)
			resp.Body.Close()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("concurrent responses diverged")
		}
	}
	if st := srv.Stats(); st.Runs != 1 {
		t.Errorf("identical concurrent specs executed %d times, want 1 (stats %+v)", st.Runs, st)
	}
}

// TestCacheHitAllocatesOnlyTheHash pins that a cache hit costs nothing
// past hashing the spec: Result must not box the RunSpec into a spec.Job
// on the heap before the lookup.
func TestCacheHitAllocatesOnlyTheHash(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops pooled JSON encoders at random under -race; allocation counts are not deterministic")
	}
	s := New(Options{Workers: 1})
	rs := spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"},
		Frames:    1,
	}
	if _, _, _, err := s.Result(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
	hash := testing.AllocsPerRun(20, func() { rs.Hash() })
	hit := testing.AllocsPerRun(20, func() {
		if _, _, hit, err := s.Result(context.Background(), rs); err != nil || !hit {
			t.Fatalf("resubmission was not a cache hit (err %v)", err)
		}
	})
	if hit > hash {
		t.Errorf("a cache hit allocates %v times, hashing alone %v", hit, hash)
	}
}

// TestBatch covers the fan-out endpoint: order preserved, failures
// reported in place, successes cached.
func TestBatch(t *testing.T) {
	srv, ts := newTestServer(t)
	specs := []any{
		spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Scheduler: spec.SchedulerRef{Name: "baseline"}, Frames: 1},
		spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Scheduler: spec.SchedulerRef{Name: "no-such-scheme"}, Frames: 1},
		spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Scheduler: spec.SchedulerRef{Name: "oovr"}, Frames: 1},
	}
	b, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/batch", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("batch returned %d elements, want 3", len(out))
	}
	for _, i := range []int{0, 2} {
		res, err := spec.DecodeResult(out[i])
		if err != nil {
			t.Errorf("element %d: %v (%s)", i, err, out[i])
			continue
		}
		if res.Metrics.Frames != 1 {
			t.Errorf("element %d: unexpected metrics %+v", i, res.Metrics)
		}
	}
	var fail map[string]string
	if err := json.Unmarshal(out[1], &fail); err != nil || !strings.Contains(fail["error"], "no-such-scheme") {
		t.Errorf("failed element reported %s", out[1])
	}
	if st := srv.Stats(); st.Batches != 1 || st.Errors != 1 || st.Runs != 2 {
		t.Errorf("batch stats off: %+v", st)
	}
}

// TestPanickingPlannerDoesNotWedge pins the panic containment: a
// user-registered factory that panics yields HTTP 500 on every submission
// — the single-flight entry is cleaned up, never left open to hang the
// next identical spec, and the error is not cached.
func TestPanickingPlannerDoesNotWedge(t *testing.T) {
	// The registry is process-global, so the factory must stay harmless
	// for every other test (including re-runs and -shuffle orders that
	// enumerate PlannerNames): it only panics when told to by params.
	registered := false
	for _, n := range spec.PlannerNames() {
		registered = registered || n == "test-panics"
	}
	if !registered {
		spec.RegisterPlanner("test-panics", func(params json.RawMessage) (driver.Planner, error) {
			p := struct{ Panic bool }{}
			if err := spec.DecodeParams(params, &p); err != nil {
				return nil, err
			}
			if p.Panic {
				panic("factory exploded")
			}
			return spec.NewPlanner("baseline", nil)
		})
	}
	srv, ts := newTestServer(t)
	rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "WE"},
		Scheduler: spec.SchedulerRef{Name: "test-panics", Params: json.RawMessage(`{"Panic": true}`)}, Frames: 1}
	for i := 0; i < 2; i++ {
		resp, body := postSpec(t, ts.URL, rs)
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("submission %d: HTTP %d (%s), want 500", i, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "panicked") {
			t.Errorf("submission %d: error body %s", i, body)
		}
	}
	if st := srv.Stats(); st.Errors != 2 || st.Runs != 0 {
		t.Errorf("panic stats off: %+v", st)
	}
}

// TestRejections covers the input guards.
func TestRejections(t *testing.T) {
	_, ts := newTestServer(t)
	// Unknown top-level fields: the strict decoder must refuse them, stream
	// and timeline included — a spec carrying either must fail rather than
	// alias a plain run's content address.
	for _, field := range []string{`"typo": 1`, `"stream": true`, `"timeline": true`} {
		resp, err := http.Post(ts.URL+"/run", "application/json",
			strings.NewReader(`{"scheduler": {"name": "oovr"}, "workload": {"name": "WE"}, `+field+`}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field %s accepted: HTTP %d", field, resp.StatusCode)
		}
	}
	// Inline recipes the generator cannot build: each must be a 400 that
	// names the field, not a 500 from a panicking run.
	for _, tc := range []struct {
		field string
		edit  func(*spec.RunSpec)
	}{
		{"Clusters", func(s *spec.RunSpec) { s.Workload.Inline.Clusters = 0 }},
		{"MeanTriangles", func(s *spec.RunSpec) { s.Workload.Inline.MeanTriangles = -5 }},
		{"Overdraw", func(s *spec.RunSpec) { s.Workload.Inline.Overdraw = -1 }},
		{"resolution", func(s *spec.RunSpec) { s.Workload.Width = -640 }},
		// Finite recipe values past the bounds that keep sizes in int64.
		{"MeanTriangles", func(s *spec.RunSpec) { s.Workload.Inline.MeanTriangles = 1e300 }},
		{"TriSigma", func(s *spec.RunSpec) { s.Workload.Inline.TriSigma = 1e300 }},
		{"MeanTextureKB", func(s *spec.RunSpec) { s.Workload.Inline.MeanTextureKB = 1e300 }},
		// The smallest positive link bandwidth halves to a 0 GB/s trunk.
		{"trunk", func(s *spec.RunSpec) {
			o := multigpu.DefaultOptions()
			o.Config.Topology, o.Config.InterGPMLinkGBs = "hierarchical", 5e-324
			s.Hardware = &o
		}},
	} {
		sp := workload.Benchmarks()[0]
		s := spec.RunSpec{Workload: spec.WorkloadRef{Name: "bad", Inline: &sp}, Scheduler: spec.SchedulerRef{Name: "oovr"}, Frames: 1}
		tc.edit(&s)
		resp, body := postSpec(t, ts.URL, s)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.field) {
			t.Errorf("bad %s: HTTP %d %s, want a 400 naming the field", tc.field, resp.StatusCode, body)
		}
	}
	// Wrong method.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: HTTP %d", resp.StatusCode)
	}
}

// TestListingsAndHealth covers the discovery endpoints.
func TestListingsAndHealth(t *testing.T) {
	_, ts := newTestServer(t)
	for path, want := range map[string]string{
		"/schedulers": "oovr",
		"/topologies": "ring",
		"/workloads":  "HL2-1280",
		"/layouts":    "striped",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		err = json.NewDecoder(resp.Body).Decode(&names)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("%s listing %v misses %q", path, names, want)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
}

// TestCacheEviction bounds the cache: filling past CacheEntries evicts the
// oldest spec, which then re-runs on resubmission.
func TestCacheEviction(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.opt.CacheEntries = 2
	mk := func(seed int64) spec.RunSpec {
		return spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"},
			Scheduler: spec.SchedulerRef{Name: "baseline"}, Frames: 1, Seed: seed}
	}
	for seed := int64(1); seed <= 3; seed++ {
		postSpec(t, ts.URL, mk(seed))
	}
	resp, _ := postSpec(t, ts.URL, mk(1)) // evicted by seeds 2 and 3
	if got := resp.Header.Get("X-Oovrd-Cache"); got != "miss" {
		t.Errorf("evicted spec reported cache %q", got)
	}
	if st := srv.Stats(); st.Evictions < 1 {
		t.Errorf("no evictions recorded: %+v", st)
	}
}

// TestOrderQueueBounded pins the eviction queue's memory behavior: the
// FIFO order slice must not grow without bound (or pin evicted hashes) on
// a long-lived server, however many distinct specs pass through.
func TestOrderQueueBounded(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 16})
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < 10000; i++ {
		h := fmt.Sprintf("hash-%d", i)
		s.cache[h] = &entry{}
		s.remember(h)
		if live := len(s.order) - s.head; live > s.opt.CacheEntries {
			t.Fatalf("insert %d: %d live entries past the bound", i, live)
		}
		// The whole backing array — dead prefix included — must stay
		// O(CacheEntries); 2× the bound plus the compaction floor is the
		// steady state the implementation promises.
		if cap(s.order) > 2*(s.opt.CacheEntries+33) {
			t.Fatalf("insert %d: order cap %d grew unbounded", i, cap(s.order))
		}
	}
	if len(s.cache) != s.opt.CacheEntries {
		t.Fatalf("cache holds %d entries, want %d", len(s.cache), s.opt.CacheEntries)
	}
	if s.stats.Evictions != 10000-int64(s.opt.CacheEntries) {
		t.Fatalf("evictions: %d", s.stats.Evictions)
	}
	// Evicted slots are cleared, not merely skipped: nothing before head
	// still pins a hash.
	for i := 0; i < s.head; i++ {
		if s.order[i] != "" {
			t.Fatalf("evicted slot %d still pins %q", i, s.order[i])
		}
	}
}

// TestCancelledClientDoesNotTakeSlot pins the /run cancellation check: a
// submitter whose context is already dead must not acquire a worker-pool
// slot (and so must never simulate), even while the pool is saturated.
func TestCancelledClientDoesNotTakeSlot(t *testing.T) {
	s := New(Options{Workers: 1, CacheEntries: 16})
	s.sem <- struct{}{} // saturate the pool: a run is (notionally) in flight
	defer func() { <-s.sem }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"}, Frames: 1}
	_, _, _, err := s.Result(ctx, rs)
	if err == nil || !strings.Contains(err.Error(), "abandoned") {
		t.Fatalf("cancelled submission: %v", err)
	}
	if st := s.Stats(); st.Runs != 0 {
		t.Fatalf("cancelled submission executed: %+v", st)
	}
	// The failed entry must not wedge the address: a live resubmission
	// executes normally once the pool frees up.
	<-s.sem
	_, _, hit, err := s.Result(context.Background(), rs)
	s.sem <- struct{}{}
	if err != nil || hit {
		t.Fatalf("resubmission after abandonment: hit=%v err=%v", hit, err)
	}
}

// testGate serializes the blocking planner factory across test runs; the
// registry is process-global so the factory is registered at most once.
var (
	testGateMu sync.Mutex
	testGateCh chan struct{}
)

// TestFollowersOfFailedRunGetError pins the single-flight failure path:
// concurrent identical submissions share one in-flight execution, and
// when it fails every follower receives the error — never a stale or
// empty body — and the address is left re-runnable.
func TestFollowersOfFailedRunGetError(t *testing.T) {
	registered := false
	for _, n := range spec.PlannerNames() {
		registered = registered || n == "test-gated-panic"
	}
	if !registered {
		spec.RegisterPlanner("test-gated-panic", func(params json.RawMessage) (driver.Planner, error) {
			p := struct{ Explode bool }{}
			if err := spec.DecodeParams(params, &p); err != nil {
				return nil, err
			}
			if p.Explode {
				testGateMu.Lock()
				ch := testGateCh
				testGateMu.Unlock()
				if ch != nil {
					<-ch
				}
				panic("gated factory exploded")
			}
			return spec.NewPlanner("baseline", nil)
		})
	}
	testGateMu.Lock()
	testGateCh = make(chan struct{})
	testGateMu.Unlock()

	srv, ts := newTestServer(t)
	rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "WE"},
		Scheduler: spec.SchedulerRef{Name: "test-gated-panic", Params: json.RawMessage(`{"Explode": true}`)},
		Frames:    1}

	const followers = 6
	codes := make([]int, followers)
	bodies := make([][]byte, followers)
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, body := postSpec(t, ts.URL, rs)
			codes[i], bodies[i] = resp.StatusCode, body
		}(i)
	}
	// Let every submission reach the single-flight entry, then fail the
	// one in-flight execution under all of them.
	time.Sleep(100 * time.Millisecond)
	testGateMu.Lock()
	close(testGateCh)
	testGateCh = nil
	testGateMu.Unlock()
	wg.Wait()

	for i := 0; i < followers; i++ {
		if codes[i] != http.StatusInternalServerError {
			t.Errorf("submission %d: HTTP %d (%s)", i, codes[i], bodies[i])
		}
		if !strings.Contains(string(bodies[i]), "panicked") {
			t.Errorf("submission %d: body %s is not the in-flight error", i, bodies[i])
		}
	}
	st := srv.Stats()
	if st.Runs != 0 || st.Errors != followers {
		t.Errorf("stats after shared failure: %+v", st)
	}
	if st.CacheMisses < 1 || st.CacheHits != 0 {
		t.Errorf("followers of a failure must not count as cache hits: %+v", st)
	}
}

// TestBatchPanicPath exercises the panic containment inside the /batch
// fan-out (run with -race in CI): panicking elements report in place while
// the rest of the batch completes, across concurrent batch requests.
func TestBatchPanicPath(t *testing.T) {
	srv, ts := newTestServer(t)
	batch := `[
	  {"workload": {"name": "DM3-640"}, "scheduler": {"name": "baseline"}, "frames": 1},
	  {"workload": {"name": "WE"}, "scheduler": {"name": "test-panics", "params": {"Panic": true}}, "frames": 1},
	  {"workload": {"name": "DM3-640"}, "scheduler": {"name": "oovr"}, "frames": 1}
	]`
	// The panicking factory is registered by TestPanickingPlannerDoesNotWedge
	// when it runs first; register here too for isolated -run invocations.
	registered := false
	for _, n := range spec.PlannerNames() {
		registered = registered || n == "test-panics"
	}
	if !registered {
		spec.RegisterPlanner("test-panics", func(params json.RawMessage) (driver.Planner, error) {
			p := struct{ Panic bool }{}
			if err := spec.DecodeParams(params, &p); err != nil {
				return nil, err
			}
			if p.Panic {
				panic("factory exploded")
			}
			return spec.NewPlanner("baseline", nil)
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/batch", "application/json", strings.NewReader(batch))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var out []json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || len(out) != 3 {
				t.Errorf("batch decode: %v (%d elements)", err, len(out))
				return
			}
			for _, i := range []int{0, 2} {
				if _, err := spec.DecodeResult(out[i]); err != nil {
					t.Errorf("element %d: %v (%s)", i, err, out[i])
				}
			}
			if !strings.Contains(string(out[1]), "panicked") {
				t.Errorf("panicking element reported %s", out[1])
			}
		}()
	}
	wg.Wait()
	if st := srv.Stats(); st.Batches != 3 || st.Errors != 3 || st.Runs != 2 {
		t.Errorf("batch panic stats: %+v", st)
	}
}
