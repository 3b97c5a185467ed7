// Package server implements the oovrd job service: RunSpecs and
// ServiceSpecs arrive over HTTP, a bounded worker pool executes them, and
// finished bodies are kept in one content-addressed cache keyed on the
// spec's content address — resubmitting an identical spec is served from
// stored bytes without touching the simulator, and identical specs
// submitted concurrently share one execution (single-flight).
//
// Endpoints:
//
//	POST /run         one RunSpec in, one canonical Result out
//	POST /batch       a JSON array of RunSpecs in, an array of Results out
//	                  (elements that fail resolve to {"error": ...})
//	POST /service     one ServiceSpec in, one canonical service Report out
//	GET  /schedulers  sorted registered scheduler names
//	GET  /routers     sorted registered session→node routing policies
//	GET  /workloads   sorted registered workload names
//	GET  /layouts     sorted registered placement layout names
//	GET  /topologies  sorted registered interconnect topology names
//	GET  /stats       run/cache counters
//	GET  /healthz     liveness
//
// Every /run and /service response carries X-Oovrd-Cache: hit|miss and
// X-Oovrd-Spec-Hash: the spec's content address.
//
// A content address is hex(sha256(Canonical())), so a body whose own
// SHA-256 is a cache key is that job's canonical encoding: /run, /service
// and each /batch element look the raw body's digest up first and answer
// a stored job of the endpoint's kind without decoding anything. The
// kind check keeps /run from serving a ServiceSpec's bytes and /service a
// RunSpec's. Decoding those bytes would reach the same key:
// FuzzDecodeJobBytes (internal/spec) pins that canonical bytes decode,
// keep their kind and re-canonicalize to themselves. Every other body
// goes through its kind's strict decoder.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"oovr/internal/obs"
	"oovr/internal/par"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/topo"
)

// maxSpecBytes bounds one submitted spec (inline workloads included).
const maxSpecBytes = 1 << 20

// Options configure a Server.
type Options struct {
	// Workers is the number of simulations allowed to execute
	// concurrently — the same bounded-pool machinery the experiment
	// harness's Parallel option uses (0 = all CPUs).
	Workers int
	// CacheEntries bounds the result cache; the oldest entry is evicted
	// past it (0 or negative = 4096).
	CacheEntries int
	// Metrics, when non-nil, is the registry the server registers its
	// instruments in and serves at GET /metrics. oovrd passes one shared
	// registry so coordinator and worker state expose through the same
	// endpoint; nil keeps the server unmetered (tests, embedding).
	Metrics *obs.Registry
	// Role names this process in /healthz and /metrics ("coordinator",
	// "worker"; empty = "server").
	Role string
}

func (o Options) defaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.Role == "" {
		o.Role = "server"
	}
	return o
}

// Stats are the server's monotonic counters, served by /stats.
type Stats struct {
	// Runs counts simulations actually executed (cache misses that ran).
	Runs int64 `json:"runs"`
	// CacheHits counts submissions answered from stored bytes, including
	// single-flight followers of an in-flight identical spec.
	CacheHits int64 `json:"cache_hits"`
	// CacheMisses counts submissions that had to execute.
	CacheMisses int64 `json:"cache_misses"`
	// Batches counts /batch requests; their elements count under the
	// other fields.
	Batches int64 `json:"batches"`
	// Errors counts submissions rejected before or during execution.
	Errors int64 `json:"errors"`
	// Evictions counts cache entries dropped by the size bound.
	Evictions int64 `json:"evictions"`
	// SingleFlightWaits counts submissions that found an identical spec
	// already executing and waited on it instead of running again; they
	// also count under CacheHits once the leader's bytes answer them.
	SingleFlightWaits int64 `json:"single_flight_waits"`
}

// entry is one content-addressed cache slot. It is inserted before the run
// starts so concurrent identical specs wait on done instead of re-running.
type entry struct {
	done chan struct{}
	body []byte
	err  error
	// service records the job kind, so a body answered by its own digest
	// is only ever served by its kind's endpoint.
	service bool
}

// Server is the oovrd HTTP handler.
type Server struct {
	opt Options
	mux *http.ServeMux
	sem chan struct{} // bounds concurrently executing simulations

	start time.Time

	// runDur observes the wall-clock duration of every executed
	// simulation; nil when Options.Metrics is.
	runDur *obs.Histogram

	mu    sync.Mutex
	cache map[string]*entry
	// order is the FIFO eviction queue: hashes from head onward, in
	// insertion order. Evicted slots are cleared and head advances;
	// remember compacts the dead prefix so the backing array stays
	// bounded on a long-lived server instead of pinning every hash ever
	// inserted.
	order []string
	head  int
	stats Stats
}

// New returns a ready handler.
func New(opt Options) *Server {
	s := &Server{
		opt:   opt.defaults(),
		mux:   http.NewServeMux(),
		cache: map[string]*entry{},
		start: time.Now(),
	}
	s.sem = make(chan struct{}, s.opt.Workers)
	s.mux.HandleFunc("/run", s.handleJob("POST a RunSpec", false, func(ctx context.Context, r io.Reader) ([]byte, string, bool, error) {
		rs, err := spec.Decode(r)
		if err != nil {
			return nil, "", false, err
		}
		return s.Result(ctx, rs)
	}))
	s.mux.HandleFunc("/service", s.handleJob("POST a ServiceSpec", true, func(ctx context.Context, r io.Reader) ([]byte, string, bool, error) {
		sp, err := spec.DecodeService(r)
		if err != nil {
			return nil, "", false, err
		}
		return s.Job(ctx, sp)
	}))
	s.mux.HandleFunc("/batch", s.handleBatch)
	s.mux.HandleFunc("/routers", listHandler(service.RouterNames))
	s.mux.HandleFunc("/schedulers", listHandler(spec.PlannerNames))
	s.mux.HandleFunc("/workloads", listHandler(spec.WorkloadNames))
	s.mux.HandleFunc("/layouts", listHandler(spec.LayoutNames))
	s.mux.HandleFunc("/topologies", listHandler(topo.Names))
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if m := s.opt.Metrics; m != nil {
		s.registerMetrics(m)
		s.mux.Handle("/metrics", m.Handler())
	}
	return s
}

// registerMetrics publishes the server's counters in m. The stats already
// live behind the cache mutex, so they expose as functions sampled at
// scrape time rather than a second set of counters to keep in sync.
func (s *Server) registerMetrics(m *obs.Registry) {
	statf := func(f func(Stats) int64) func() float64 {
		return func() float64 { return float64(f(s.Stats())) }
	}
	m.NewCounterFunc("oovr_server_runs_total",
		"Simulations executed (cache misses that ran).",
		statf(func(st Stats) int64 { return st.Runs }))
	m.NewCounterFunc("oovr_server_cache_hits_total",
		"Submissions answered from stored bytes.",
		statf(func(st Stats) int64 { return st.CacheHits }))
	m.NewCounterFunc("oovr_server_cache_misses_total",
		"Submissions that had to execute.",
		statf(func(st Stats) int64 { return st.CacheMisses }))
	m.NewCounterFunc("oovr_server_singleflight_waits_total",
		"Submissions that waited on an identical in-flight spec.",
		statf(func(st Stats) int64 { return st.SingleFlightWaits }))
	m.NewCounterFunc("oovr_server_batches_total",
		"Batch requests served.",
		statf(func(st Stats) int64 { return st.Batches }))
	m.NewCounterFunc("oovr_server_errors_total",
		"Submissions rejected before or during execution.",
		statf(func(st Stats) int64 { return st.Errors }))
	m.NewCounterFunc("oovr_server_cache_evictions_total",
		"Cache entries dropped by the size bound.",
		statf(func(st Stats) int64 { return st.Evictions }))
	m.NewGaugeFunc("oovr_server_in_flight",
		"Simulations currently holding a worker-pool slot.",
		func() float64 { return float64(len(s.sem)) })
	s.runDur = m.NewHistogram("oovr_server_run_duration_seconds",
		"Wall-clock duration of one executed simulation.", obs.DefBuckets)
}

// handleHealthz serves GET /healthz: liveness plus enough identity to tell
// which process answered — role, uptime, build info, current load.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := map[string]any{
		"ok":             true,
		"spec_version":   spec.CurrentVersion,
		"role":           s.opt.Role,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"in_flight":      len(s.sem),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		h["go"] = bi.GoVersion
		h["module"] = bi.Main.Path
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				h["revision"] = kv.Value
			case "vcs.modified":
				h["dirty"] = kv.Value == "true"
			}
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Stats snapshots the counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Job answers one job — a RunSpec or a ServiceSpec — from the cache when
// its content address is known, executing it (at most once, under the
// worker pool) otherwise. The hash is computed before anything resolves,
// so a hit constructs nothing. Both kinds share one key space: their
// canonical encodings never coincide. A job that has not yet acquired a
// worker-pool slot when ctx (the submitter's interest) dies is abandoned.
// The fleet worker and the HTTP handlers all execute through here.
func (s *Server) Job(ctx context.Context, j spec.Job) (body []byte, hash string, hit bool, err error) {
	if hash, err = j.Hash(); err != nil {
		return nil, "", false, err
	}
	body, hit, err = s.answer(ctx, j, hash)
	return body, hash, hit, err
}

// Result is Job for a RunSpec. It hashes the concrete type: hashing
// through the spec.Job interface would move the spec to the heap on every
// submission, cache hits included.
func (s *Server) Result(ctx context.Context, rs spec.RunSpec) (body []byte, hash string, hit bool, err error) {
	if hash, err = rs.Hash(); err != nil {
		return nil, "", false, err
	}
	body, hit, err = s.answer(ctx, rs, hash)
	return body, hash, hit, err
}

// answer serves a hashed job from stored bytes or executes it, once for
// every concurrent submitter of the same address (single-flight).
func (s *Server) answer(ctx context.Context, j spec.Job, hash string) (body []byte, hit bool, err error) {
	s.mu.Lock()
	if e, ok := s.cache[hash]; ok {
		s.mu.Unlock()
		body, err = s.serve(e)
		return body, true, err
	}
	_, service := j.(spec.ServiceSpec)
	e := &entry{done: make(chan struct{}), service: service}
	s.cache[hash] = e
	s.stats.CacheMisses++
	s.mu.Unlock()

	e.body, e.err = s.execute(ctx, j)
	s.mu.Lock()
	if e.err != nil {
		// Failed runs do not stay addressable; a corrected resubmission
		// (or a transient failure) gets a fresh execution.
		delete(s.cache, hash)
	} else {
		s.remember(hash)
	}
	s.mu.Unlock()
	close(e.done)
	return e.body, false, e.err
}

// byDigest answers raw from the cache when raw is itself the canonical
// encoding of a stored job of the given kind: it looks the hex SHA-256 of
// raw up as a content address. hit is false when no such entry is stored;
// the caller then decodes raw.
func (s *Server) byDigest(raw []byte, service bool) (body []byte, hash string, hit bool, err error) {
	sum := sha256.Sum256(raw)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	s.mu.Lock()
	e, ok := s.cache[string(key[:])]
	s.mu.Unlock()
	if !ok || e.service != service {
		return nil, "", false, nil
	}
	body, err = s.serve(e)
	return body, string(key[:]), true, err
}

// serve answers a submission from a cache entry, waiting for its run when
// it is still in flight.
func (s *Server) serve(e *entry) ([]byte, error) {
	s.waitDone(e)
	if e.err == nil {
		// Counted only when stored bytes actually answer the submission;
		// a follower of a failed in-flight run gets the error and lands
		// under Errors instead.
		s.mu.Lock()
		s.stats.CacheHits++
		s.mu.Unlock()
	}
	return e.body, e.err
}

// waitDone blocks until e's run finishes, counting the wait when the run
// is still in flight — the single-flight followers the /stats and /metrics
// single_flight_waits counters report.
func (s *Server) waitDone(e *entry) {
	select {
	case <-e.done:
		return
	default:
	}
	s.mu.Lock()
	s.stats.SingleFlightWaits++
	s.mu.Unlock()
	<-e.done
}

// remember enqueues a hash for FIFO eviction and applies the size bound.
// Called with mu held. Cleared slots plus periodic compaction keep the
// queue's backing array at O(CacheEntries) — advancing a slice header
// alone would pin every evicted hash for the life of the server.
func (s *Server) remember(hash string) {
	s.order = append(s.order, hash)
	for len(s.order)-s.head > s.opt.CacheEntries {
		delete(s.cache, s.order[s.head])
		s.order[s.head] = ""
		s.head++
		s.stats.Evictions++
	}
	if s.head > 32 && s.head*2 >= len(s.order) {
		s.order = append(s.order[:0], s.order[s.head:]...)
		s.head = 0
	}
}

// execError marks a failure that happened after the spec resolved —
// server-side trouble, reported as HTTP 500 rather than the 400 a bad
// submission gets.
type execError struct{ error }

func (e execError) Unwrap() error { return e.error }

// IsExecError reports whether err arose after the spec resolved:
// server-side (retryable) trouble rather than a bad submission. The fleet
// worker uses it to classify failures — resolve errors quarantine a spec,
// exec errors consume its retry budget.
func IsExecError(err error) bool {
	var ee execError
	return errors.As(err, &ee)
}

// execute resolves a job (client errors) and runs it under the worker pool
// (server errors) — the miss path. The recover sits above both phases: a
// panicking user-registered factory or simulation must neither wedge the
// in-flight cache entry nor crash a /batch goroutine. The context gates
// slot acquisition only: once a job holds a slot it completes (and lands
// in the cache) — a simulation cannot be unwound halfway.
func (s *Server) execute(ctx context.Context, j spec.Job) (body []byte, err error) {
	what := "run"
	if _, ok := j.(spec.ServiceSpec); ok {
		what = "service run"
	}
	defer func() {
		if p := recover(); p != nil {
			err = execError{fmt.Errorf("%s panicked: %v", what, p)}
		}
	}()
	run, err := resolve(j)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("abandoned before execution: %w", err)
	}
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("abandoned waiting for an execution slot: %w", ctx.Err())
	}
	defer func() { <-s.sem }()
	t0 := time.Now()
	out, err := run()
	if err != nil {
		return nil, execError{err}
	}
	if s.runDur != nil {
		s.runDur.Observe(time.Since(t0).Seconds())
	}
	s.mu.Lock()
	s.stats.Runs++
	s.mu.Unlock()
	if body, err = out.Encode(); err != nil {
		return nil, execError{err}
	}
	return body, nil
}

// encoder is what a job's execution produces: a spec.Result or a
// service.Report, encoded canonically into the response body.
type encoder interface{ Encode() ([]byte, error) }

// resolve checks a job against the registries — every error a bad
// submission can cause, before any simulation starts — and returns the
// step that simulates it.
func resolve(j spec.Job) (func() (encoder, error), error) {
	switch j := j.(type) {
	case spec.RunSpec:
		run, err := j.Resolve()
		if err != nil {
			return nil, err
		}
		return func() (encoder, error) { return spec.NewResult(run.Spec, run.Execute()) }, nil
	case spec.ServiceSpec:
		res, err := j.Resolve()
		if err != nil {
			return nil, err
		}
		if _, err := service.NewRouter(res.Spec.Router.Name, res.Spec.Router.Params); err != nil {
			return nil, err
		}
		return func() (encoder, error) { return service.Run(res.Spec, service.RunOptions{}) }, nil
	}
	return nil, fmt.Errorf("server: unknown job kind")
}

// handleJob returns the POST handler /run and /service share. It reads the
// body once, under the size bound, and answers a stored job of its kind
// (service) by the body's own digest. Any other body goes to answer, which
// decodes it with the kind's strict decoder and runs it through the job
// path. The reply carries the body and the cache headers, or an error
// element: 400 for a bad submission, 500 for a server-side failure.
func (s *Server) handleJob(usage string, service bool, answer func(context.Context, io.Reader) ([]byte, string, bool, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, usage, http.StatusMethodNotAllowed)
			return
		}
		raw, rerr := readBody(http.MaxBytesReader(w, r.Body, maxSpecBytes), r.ContentLength)
		var (
			body []byte
			hash string
			hit  bool
			err  error
		)
		if rerr == nil {
			body, hash, hit, err = s.byDigest(raw, service)
		}
		if !hit {
			body, hash, hit, err = answer(r.Context(), replay(raw, rerr))
		}
		if err != nil {
			code := http.StatusBadRequest
			if IsExecError(err) {
				code = http.StatusInternalServerError
			}
			s.fail(w, code, err)
			return
		}
		cache := "miss"
		if hit {
			cache = "hit"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Oovrd-Spec-Hash", hash)
		w.Header().Set("X-Oovrd-Cache", cache)
		w.Write(body)
	}
}

// readBody reads a whole request body into a buffer presized from its
// declared length n (-1 when unknown), capped at maxSpecBytes.
func readBody(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	// ReadFrom keeps MinRead bytes free for each read, so a body of the
	// declared length fits without growing.
	buf.Grow(int(min(max(n, 0), maxSpecBytes)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// replay reads back what readBody delivered, then the error that cut the
// read short, so the strict decoder words an oversized body the way it
// does when it reads the request itself.
func replay(raw []byte, err error) io.Reader {
	if err == nil {
		return bytes.NewReader(raw)
	}
	return io.MultiReader(bytes.NewReader(raw), errReader{err})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// handleBatch serves POST /batch: the elements fan out across the worker
// pool (the shared par.ForEach primitive) and the response array keeps
// submission order; a failed element becomes {"error": ...} in place.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON array of RunSpecs", http.StatusMethodNotAllowed)
		return
	}
	var raw []json.RawMessage
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64*maxSpecBytes))
	if err := dec.Decode(&raw); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch: %w", err))
		return
	}
	// Same strictness as /run's spec decoding: trailing data (e.g. two
	// concatenated dump outputs) must not silently run a subset.
	if _, err := dec.Token(); err != io.EOF {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("batch: trailing data after the spec array"))
		return
	}
	s.mu.Lock()
	s.stats.Batches++
	s.mu.Unlock()
	out := make([]json.RawMessage, len(raw))
	par.ForEach(s.opt.Workers, len(raw), func(i int) {
		// Each element of a -dump-spec array is canonical bytes, which a
		// warm cache answers by their digest.
		body, _, hit, err := s.byDigest(raw[i], false)
		if !hit {
			var rs spec.RunSpec
			if rs, err = spec.Decode(bytes.NewReader(raw[i])); err == nil {
				// One disconnected batch submitter abandons all of its
				// still-unstarted elements at once: they share its context.
				body, _, _, err = s.Result(r.Context(), rs)
			}
		}
		if err == nil {
			out[i] = body
			return
		}
		s.countError()
		msg, _ := json.Marshal(map[string]string{"error": err.Error()})
		out[i] = msg
	})
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Server) fail(w http.ResponseWriter, code int, err error) {
	s.countError()
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func (s *Server) countError() {
	s.mu.Lock()
	s.stats.Errors++
	s.mu.Unlock()
}

func listHandler(names func() []string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, names())
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
}
