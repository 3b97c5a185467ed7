package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"oovr/internal/server"
	"oovr/internal/spec"
)

const oovrdClients = 2 // closed-loop clients, one per core of the reference box

// oovrdBench is oovrd's job server with default options behind httptest,
// driven by closed-loop clients that POST /run with the spec matrix
// `oovrsim -all -dump-spec` emits for it, one canonical spec per request.
// Each workload takes one side of the result cache, so no mix of hits and
// misses has to be assumed:
//
//   - oovrd_hit: set-up submits the seed-S matrix once (63 misses); the
//     timed phase makes passes over it, each resubmitting its specs in a
//     seeded random order, until --seconds have passed. Every answer must
//     be a hit with the bytes the miss returned: hashing, canonical JSON,
//     the cache and HTTP.
//   - oovrd_miss: the timed phase submits whole matrices, each to a fresh
//     server so that every answer is a cold simulation plus Result
//     encoding.
type oovrdBench struct {
	hits    bool
	seed    int64
	seconds float64 // oovrd_hit's time box
	sweeps  int     // oovrd_miss's fixed work
	specs   []spec.RunSpec
	reqs    [][][]byte
	frames  []int64 // simulated frames per sweep
	srv     atomic.Pointer[server.Server]
	ts      *httptest.Server
	http    *http.Client
	// first holds the result bodies of the seed-S matrix: oovrd_hit's
	// set-up submission, or oovrd_miss's first timed sweep.
	first [][]byte

	// Traced-pass totals: server handler time and client round trip.
	mu             sync.Mutex
	handler, round time.Duration
}

func setupOovrdHit(c config, rec *recorder) (bench, error)  { return setupOovrd(c, rec, true) }
func setupOovrdMiss(c config, rec *recorder) (bench, error) { return setupOovrd(c, rec, false) }

func setupOovrd(c config, rec *recorder, hits bool) (bench, error) {
	b := &oovrdBench{hits: hits, seed: c.seed, seconds: c.seconds}
	n := sweepSeeds
	if hits {
		n = 1
	} else {
		b.sweeps = units(c, sweepSeconds)
	}
	sweeps := specSweeps(c, n)
	b.specs = sweeps[0]
	for _, specs := range sweeps {
		reqs, err := encodeSpecs(specs)
		if err != nil {
			return nil, err
		}
		var frames int64
		for _, rs := range specs {
			frames += int64(rs.Frames)
		}
		b.reqs, b.frames = append(b.reqs, reqs), append(b.frames, frames)
	}
	var h http.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.srv.Load().ServeHTTP(w, r)
	})
	if c.trace {
		h = b.timed(h)
	}
	b.ts = httptest.NewServer(h)
	b.http = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: oovrdClients},
		Timeout:   time.Minute, // a request takes milliseconds; a hung one fails
	}
	if hits {
		// Fill the cache the timed phase reads. Its bodies are pinned.
		bodies, err := b.sweep(b.reqs[0], nil)
		if err != nil {
			b.close()
			return nil, err
		}
		b.first = bodies
		rec.output(b.key(0), bytes.Join(bodies, nil), 0)
	} else {
		warm, err := encodeSpecs(specSweeps(config{seed: 1, smoke: c.smoke}, 1)[0][:checkedSpecs])
		if err == nil {
			_, err = b.sweep(warm, nil)
		}
		if err != nil {
			b.close()
			return nil, err
		}
	}
	b.mu.Lock()
	b.handler, b.round = 0, 0
	b.mu.Unlock()
	return b, nil
}

func encodeSpecs(specs []spec.RunSpec) ([][]byte, error) {
	var out [][]byte
	for _, rs := range specs {
		body, err := rs.Canonical()
		if err != nil {
			return nil, err
		}
		out = append(out, body)
	}
	return out, nil
}

func (b *oovrdBench) key(sweep int) string {
	return fmt.Sprintf("seed%d", b.seed+int64(sweep))
}

// sweep submits reqs to a fresh server from the closed-loop clients and
// returns the result bodies in request order. Every answer must be a miss.
// Per-request latencies go to rec when it is non-nil.
func (b *oovrdBench) sweep(reqs [][]byte, rec *recorder) ([][]byte, error) {
	b.srv.Store(server.New(server.Options{}))
	bodies := make([][]byte, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, oovrdClients)
	for c := 0; c < oovrdClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(reqs); i = int(next.Add(1) - 1) {
				t0 := time.Now()
				status, cache, resp, err := b.post(reqs[i])
				if rec != nil {
					rec.latency(t0, time.Now())
				}
				if err == nil && (status != http.StatusOK || cache != "miss") {
					err = fmt.Errorf("spec %d answered %d %q: %s", i, status, cache, resp)
				}
				if err != nil {
					errs[c] = err
					return
				}
				bodies[i] = resp
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// post submits one request and adds its round trip to the traced total.
func (b *oovrdBench) post(body []byte) (status int, cache string, resp []byte, err error) {
	t0 := time.Now()
	r, err := b.http.Post(b.ts.URL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	d := time.Since(t0)
	b.mu.Lock()
	b.round += d
	b.mu.Unlock()
	return r.StatusCode, r.Header.Get("X-Oovrd-Cache"), resp, err
}

func (b *oovrdBench) run(rec *recorder) {
	if b.hits {
		b.runHits(rec)
		return
	}
	for k := 0; k < b.sweeps; k++ {
		s := k % len(b.reqs)
		n := int64(len(b.reqs[s]))
		bodies, err := b.sweep(b.reqs[s], rec)
		if err != nil {
			rec.fail(n, "%s: %v", b.key(s), err)
		} else {
			rec.output(b.key(s), bytes.Join(bodies, nil), n)
			rec.addFrames(b.frames[s])
			if k == 0 {
				b.first = bodies
			}
		}
		rec.done(n)
		rec.pause()
	}
}

// hitSegments splits oovrd_hit's time box, so that reference slices can
// run between its parts.
const hitSegments = 12

// runHits makes passes over the cached matrix until the time box has
// passed; each client orders its passes with its own seeded generator.
func (b *oovrdBench) runHits(rec *recorder) {
	rngs := make([]*rand.Rand, oovrdClients)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(b.seed*1000 + int64(c)))
	}
	seg := time.Duration(b.seconds * float64(time.Second) / hitSegments)
	for s := 0; s < hitSegments; s++ {
		deadline := time.Now().Add(seg)
		var wg sync.WaitGroup
		for _, rng := range rngs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !time.Now().After(deadline) {
					t0 := time.Now()
					err := b.hitPass(rng)
					rec.latency(t0, time.Now())
					if err != nil {
						rec.fail(1, "oovrd: %v", err)
					}
					rec.done(1)
				}
			}()
		}
		wg.Wait()
		rec.pause()
	}
}

// hitPass resubmits every spec of the cached matrix once, in a random
// order, and checks that each answer is a hit with the body its miss
// returned. A pass, not a request, is oovrd_hit's op: the median latency
// of single hits (0.11–0.17 ms) spread by 26% across runs whose scaled
// throughput held within 13%; a pass sums 63 of them, so its median
// follows their mean.
func (b *oovrdBench) hitPass(rng *rand.Rand) error {
	for _, i := range rng.Perm(len(b.first)) {
		status, cache, resp, err := b.post(b.reqs[0][i])
		if err == nil && (status != http.StatusOK || cache != "hit" || !bytes.Equal(resp, b.first[i])) {
			err = fmt.Errorf("spec %d answered %d %q with a different body", i, status, cache)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (b *oovrdBench) verify(rec *recorder) {
	n := min(checkedSpecs, len(b.first))
	checkInProcess(rec, "/run", b.specs[:n], b.first[:n])
}

// timed wraps the server's handler and adds each request's handler time to
// the traced total.
func (b *oovrdBench) timed(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		b.mu.Lock()
		b.handler += d
		b.mu.Unlock()
	})
}

func (b *oovrdBench) layers(time.Duration) map[string]float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.round <= 0 {
		return map[string]float64{}
	}
	return map[string]float64{"server.handler_share": 100 * b.handler.Seconds() / b.round.Seconds()}
}

func (b *oovrdBench) close() {
	b.ts.Close()
	b.http.CloseIdleConnections()
}
