package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"oovr/internal/fleet"
	"oovr/internal/server"
	"oovr/internal/spec"
)

const fleetWorkers = 2 // in-process workers, one per core of the reference box

// fleetBench is a fleet coordinator behind httptest with in-process
// workers, each executing through its own server.New(Options{Workers: 1})
// as `oovrd -worker` does. The fixed work is a number of sweeps of the spec
// matrix, each submitted to a fresh coordinator and fresh worker servers —
// the coordinator deduplicates across sweeps and the servers cache, so
// reusing either would turn later sweeps into lookups. An op is one spec.
type fleetBench struct {
	seed    int64
	specs   [][]spec.RunSpec
	sweeps  int
	first   []json.RawMessage // the first timed sweep's result bodies
	coord   atomic.Pointer[fleet.Coordinator]
	ts      *httptest.Server
	workers []*fleetWorker
	stop    context.CancelFunc
	wg      sync.WaitGroup

	// Traced-pass totals.
	dispatched, completed int64
	idle0, retries0       int64
}

type fleetWorker struct {
	w    *fleet.Worker
	srv  atomic.Pointer[server.Server]
	rt   *timingTransport
	exec atomic.Int64 // nanoseconds inside Exec
}

func setupFleet(c config, rec *recorder) (bench, error) {
	b := &fleetBench{seed: c.seed, specs: specSweeps(c, sweepSeeds), sweeps: units(c, sweepSeconds)}
	b.coord.Store(fleet.NewCoordinator(fleet.CoordinatorOptions{}))
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.coord.Load().ServeHTTP(w, r)
	}))
	ctx, stop := context.WithCancel(context.Background())
	b.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		fw := &fleetWorker{rt: &timingTransport{base: &http.Transport{}}}
		fw.w = &fleet.Worker{
			Coordinator: b.ts.URL,
			Name:        fmt.Sprintf("w%d", i),
			Exec:        fw.execute,
			// The default idle backoff (100ms..2s) would dominate a
			// sub-second sweep; poll an empty queue every 1-4ms instead.
			IdleBackoff: fleet.NewBackoff(time.Millisecond, 4*time.Millisecond, c.seed+int64(i)),
			HTTP:        &http.Client{Transport: fw.rt},
		}
		fw.srv.Store(server.New(server.Options{Workers: 1}))
		b.workers = append(b.workers, fw)
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			if err := fw.w.Run(ctx); err != nil {
				rec.fail(1, "fleet worker: %v", err)
			}
		}()
	}
	// Warm-up: the first specs of the seed-1 sweep.
	if _, err := b.sweep(specSweeps(config{seed: 1, smoke: c.smoke}, 1)[0][:checkedSpecs], nil); err != nil {
		b.close()
		return nil, err
	}
	b.dispatched, b.completed = 0, 0
	for _, fw := range b.workers {
		st := &fw.w.Stats
		b.idle0 += st.IdleSleeps.Load()
		b.retries0 += st.RPCRetries.Load()
		fw.exec.Store(0)
		fw.rt.reset()
	}
	return b, nil
}

// sweep runs specs on a fresh coordinator and fresh worker servers and
// returns the result bodies in submission order. Per-spec latencies go to
// rec when it is non-nil.
func (b *fleetBench) sweep(specs []spec.RunSpec, rec *recorder) ([]json.RawMessage, error) {
	coord := fleet.NewCoordinator(fleet.CoordinatorOptions{})
	b.coord.Store(coord)
	for _, fw := range b.workers {
		fw.srv.Store(server.New(server.Options{Workers: 1}))
		fw.rt.rec.Store(rec)
	}
	id, _, err := coord.Submit(specs)
	if err != nil {
		return nil, err
	}
	// A sweep takes well under a second; a stuck one must not outlive the
	// run's time limit.
	giveUp := time.Now().Add(time.Minute)
	for time.Now().Before(giveUp) {
		st, _ := coord.Collect(id)
		if st.Done {
			cs := coord.Status()
			b.dispatched += cs.Dispatched
			b.completed += cs.Completed
			return st.Results, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil, fmt.Errorf("sweep %s did not finish within a minute", id)
}

func (b *fleetBench) run(rec *recorder) {
	for k := 0; k < b.sweeps; k++ {
		s := k % len(b.specs)
		specs := b.specs[s]
		n := int64(len(specs))
		key := fmt.Sprintf("seed%d", b.seed+int64(s))
		bodies, err := b.sweep(specs, rec)
		if err != nil {
			rec.fail(n, "%s: %v", key, err)
		} else {
			var all []byte
			for i, body := range bodies {
				res, err := fleet.DecodeVerifiedResult(body)
				if err != nil {
					rec.fail(1, "%s spec %d: %v", key, i, err)
					continue
				}
				rec.addFrames(int64(res.Metrics.Frames))
				all = append(all, body...)
			}
			rec.output(key, all, n)
			if k == 0 {
				b.first = bodies
			}
		}
		rec.done(n)
		rec.pause()
	}
}

func (b *fleetBench) verify(rec *recorder) {
	n := min(checkedSpecs, len(b.first))
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = b.first[i]
	}
	checkInProcess(rec, "fleet", b.specs[0][:n], bodies)
}

// execute is the worker's Exec: the job server's single-flight cache, as
// `oovrd -worker` wires it, timed.
func (fw *fleetWorker) execute(rs spec.RunSpec) ([]byte, error) {
	t0 := time.Now()
	body, _, _, err := fw.srv.Load().Result(context.Background(), rs)
	fw.exec.Add(int64(time.Since(t0)))
	if err != nil && !server.IsExecError(err) {
		return nil, fleet.Permanent(err)
	}
	return body, err
}

func (b *fleetBench) layers(wall time.Duration) map[string]float64 {
	capacity := wall.Seconds() * fleetWorkers
	var exec, lease, complete time.Duration
	var idle, retries int64
	for _, fw := range b.workers {
		exec += time.Duration(fw.exec.Load())
		l, c := fw.rt.totals()
		lease += l
		complete += c
		idle += fw.w.Stats.IdleSleeps.Load()
		retries += fw.w.Stats.RPCRetries.Load()
	}
	out := map[string]float64{
		"fleet.worker_busy_share":  100 * exec.Seconds() / capacity,
		"fleet.lease_rpc_share":    100 * lease.Seconds() / capacity,
		"fleet.complete_rpc_share": 100 * complete.Seconds() / capacity,
		"fleet.idle_sleeps":        float64(idle - b.idle0),
		"fleet.rpc_retries":        float64(retries - b.retries0),
	}
	if b.dispatched > 0 {
		out["fleet.useful_lease_ratio"] = float64(b.completed) / float64(b.dispatched)
	}
	return out
}

func (b *fleetBench) close() {
	b.stop()
	b.wg.Wait()
	b.ts.Close()
	for _, fw := range b.workers {
		fw.rt.base.CloseIdleConnections()
	}
}

// timingTransport times a worker's coordinator RPCs. A spec's latency runs
// from the start of the lease RPC that granted it to the end of the
// complete RPC that delivered its Result.
type timingTransport struct {
	base *http.Transport
	rec  atomic.Pointer[recorder]

	mu              sync.Mutex
	granted         time.Time
	lease, complete time.Duration
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(req)
	t1 := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	switch req.URL.Path {
	case "/fleet/lease":
		t.lease += t1.Sub(t0)
		if err == nil && resp.StatusCode == http.StatusOK {
			t.granted = t0
		}
	case "/fleet/complete":
		t.complete += t1.Sub(t0)
		if rec := t.rec.Load(); rec != nil && !t.granted.IsZero() {
			rec.latency(t.granted, t1)
		}
		t.granted = time.Time{}
	}
	return resp, err
}

func (t *timingTransport) totals() (lease, complete time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lease, t.complete
}

func (t *timingTransport) reset() {
	t.mu.Lock()
	t.lease, t.complete = 0, 0
	t.mu.Unlock()
}
