package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"oovr/internal/spec"
)

// post posts body to path on s's handler in-process.
func post(s *Server, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func canonical(t *testing.T, j spec.Job) []byte {
	t.Helper()
	b, err := j.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCanonicalBodyAnsweredByDigest pins the digest path: a resubmitted
// canonical body answers hit with the bytes and headers the decode path
// gives, for less allocation, and a non-canonical spelling of the same
// run still hits through the decoder under the same content address.
func TestCanonicalBodyAnsweredByDigest(t *testing.T) {
	s := New(Options{Workers: 2})
	rs := spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "oovr"},
		Frames:    1,
	}
	canon := canonical(t, rs)
	// The alias "OOVR" names the same planner; a trailing newline is
	// insignificant to the decoder. Both spell the run non-canonically.
	alias := bytes.Replace(canon, []byte(`"name":"oovr"`), []byte(`"name":"OOVR"`), 1)
	if bytes.Equal(alias, canon) {
		t.Fatal("the canonical spec does not name the scheduler oovr")
	}
	spellings := [][]byte{append(bytes.Clone(canon), '\n'), alias}

	miss := post(s, "/run", bytes.NewReader(canon))
	if miss.Code != http.StatusOK || miss.Header().Get("X-Oovrd-Cache") != "miss" {
		t.Fatalf("first submission: HTTP %d, cache %q: %s", miss.Code, miss.Header().Get("X-Oovrd-Cache"), miss.Body)
	}
	// A body of unknown length reads through the growing buffer.
	for _, body := range []io.Reader{bytes.NewReader(canon), io.MultiReader(bytes.NewReader(canon))} {
		hit := post(s, "/run", body)
		if hit.Code != http.StatusOK || hit.Header().Get("X-Oovrd-Cache") != "hit" {
			t.Fatalf("canonical resubmission: HTTP %d, cache %q", hit.Code, hit.Header().Get("X-Oovrd-Cache"))
		}
		if !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
			t.Error("digest hit body differs from the miss body")
		}
		if got := hit.Header().Get("X-Oovrd-Spec-Hash"); got != digest(canon) {
			t.Errorf("digest hit hash header %s, want sha256 of the body %s", got, digest(canon))
		}
		for _, b := range spellings {
			dec := post(s, "/run", bytes.NewReader(b))
			if !reflect.DeepEqual(hit.Header(), dec.Header()) {
				t.Errorf("%q: digest hit headers %v, decode-path hit headers %v", b, hit.Header(), dec.Header())
			}
			if !bytes.Equal(hit.Body.Bytes(), dec.Body.Bytes()) {
				t.Errorf("%q: decode-path hit body differs", b)
			}
		}
	}
	if st := s.Stats(); st.Runs != 1 || st.CacheMisses != 1 || st.CacheHits != 6 {
		t.Errorf("stats %+v, want 1 run, 1 miss and 6 hits", st)
	}

	byDigest := testing.AllocsPerRun(20, func() { post(s, "/run", bytes.NewReader(canon)) })
	for _, b := range spellings {
		decoded := testing.AllocsPerRun(20, func() { post(s, "/run", bytes.NewReader(b)) })
		if byDigest >= decoded {
			t.Errorf("a canonical hit allocates %v times, the decode-path hit of %q %v", byDigest, b, decoded)
		}
	}
}

// TestDigestHitKeepsTheKind pins the kind check: the canonical bytes of
// a cached job posted to the other kind's endpoint are rejected by that
// endpoint's decoder, as they were before the digest lookup.
func TestDigestHitKeepsTheKind(t *testing.T) {
	s := New(Options{Workers: 2})
	run := canonical(t, spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"},
		Frames:    1,
	})
	svc := canonical(t, smallService())
	for _, c := range []struct {
		path string
		body []byte
	}{{"/run", run}, {"/service", svc}} {
		if rec := post(s, c.path, bytes.NewReader(c.body)); rec.Code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", c.path, rec.Code, rec.Body)
		}
	}
	for path, body := range map[string][]byte{"/run": svc, "/service": run} {
		checkRejected(t, s, path, body)
	}
}

// strictDecoders are the decoders /run and /service used to read the
// request body with, reduced to their error.
var strictDecoders = map[string]func(io.Reader) error{
	"/run":     func(r io.Reader) error { _, err := spec.Decode(r); return err },
	"/service": func(r io.Reader) error { _, err := spec.DecodeService(r); return err },
}

// checkRejected posts body to path and requires the 400 whose error is the
// one path's strict decoder gives reading the body under the size bound.
func checkRejected(t *testing.T, s *Server, path string, body []byte) {
	t.Helper()
	err := strictDecoders[path](http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), maxSpecBytes))
	if err == nil {
		t.Fatalf("%s: the strict decoder accepts %.80q", path, body)
	}
	want, _ := json.Marshal(map[string]string{"error": err.Error()})
	rec := post(s, path, bytes.NewReader(body))
	if rec.Code != http.StatusBadRequest || rec.Body.String() != string(want) {
		t.Errorf("%s %.80q: HTTP %d %s, want 400 %s", path, body, rec.Code, rec.Body, want)
	}
}

// TestDigestHitWaitsOnInFlightRun pins single-flight on the digest path:
// a canonical body whose run is still executing waits for it, counts as a
// single-flight wait and is answered by the leader's bytes.
func TestDigestHitWaitsOnInFlightRun(t *testing.T) {
	s := New(Options{Workers: 1})
	canon := canonical(t, spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"},
		Frames:    1,
	})
	// Hold the only worker-pool slot so the leader stays in flight.
	s.sem <- struct{}{}
	recs := make(chan *httptest.ResponseRecorder, 2)
	go func() { recs <- post(s, "/run", bytes.NewReader(canon)) }()
	waitFor(t, func() bool { return s.Stats().CacheMisses == 1 })
	go func() { recs <- post(s, "/run", bytes.NewReader(canon)) }()
	waitFor(t, func() bool { return s.Stats().SingleFlightWaits == 1 })
	<-s.sem

	a, b := <-recs, <-recs
	if a.Code != http.StatusOK || b.Code != http.StatusOK || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
		t.Fatalf("leader and follower disagree: HTTP %d/%d", a.Code, b.Code)
	}
	if caches := a.Header().Get("X-Oovrd-Cache") + b.Header().Get("X-Oovrd-Cache"); caches != "misshit" && caches != "hitmiss" {
		t.Errorf("cache headers %q, want one miss and one hit", caches)
	}
	if st := s.Stats(); st.Runs != 1 || st.CacheHits != 1 || st.SingleFlightWaits != 1 {
		t.Errorf("stats %+v, want 1 run, 1 hit and 1 single-flight wait", st)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("timed out")
		}
	}
}

// TestBatchOfDumpedSpecsAnswersFromCache posts a -dump-spec array twice:
// the second answer comes wholly from the cache, byte for byte.
func TestBatchOfDumpedSpecsAnswersFromCache(t *testing.T) {
	s := New(Options{Workers: 2})
	var specs []spec.RunSpec
	for _, name := range []string{"baseline", "oovr", "afr"} {
		specs = append(specs, spec.RunSpec{
			Workload:  spec.WorkloadRef{Name: "DM3-640"},
			Scheduler: spec.SchedulerRef{Name: name},
			Frames:    1,
		})
	}
	dump, err := spec.EncodeArray(specs)
	if err != nil {
		t.Fatal(err)
	}
	first := post(s, "/batch", bytes.NewReader(dump))
	second := post(s, "/batch", bytes.NewReader(dump))
	if first.Code != http.StatusOK || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("batch answers differ: HTTP %d: %s", first.Code, first.Body)
	}
	var out []json.RawMessage
	if err := json.Unmarshal(second.Body.Bytes(), &out); err != nil || len(out) != len(specs) {
		t.Fatalf("batch answer: %v, %d elements", err, len(out))
	}
	for i, raw := range out {
		if _, err := spec.DecodeResult(raw); err != nil {
			t.Errorf("element %d: %v", i, err)
		}
	}
	n := int64(len(specs))
	if st := s.Stats(); st.Runs != n || st.CacheMisses != n || st.CacheHits != n || st.Errors != 0 {
		t.Errorf("stats %+v, want %d runs, misses and hits", st, n)
	}
}

// TestBodyReadErrorsKeepTheDecoderWords pins that reading the body whole
// before decoding it leaves every rejection worded as the streaming
// strict decoder words it: oversized, empty and trailing-data bodies.
func TestBodyReadErrorsKeepTheDecoderWords(t *testing.T) {
	s := New(Options{Workers: 1})
	canon := canonical(t, spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "baseline"},
		Frames:    1,
	})
	if rec := post(s, "/run", bytes.NewReader(canon)); rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body)
	}
	bodies := map[string][]byte{
		"empty":               nil,
		"trailing":            append(bytes.Clone(canon), "{}"...),
		"oversized":           append(append([]byte(`{"frames":1`), bytes.Repeat([]byte(" "), maxSpecBytes)...), '}'),
		"oversized canonical": append(bytes.Clone(canon), bytes.Repeat([]byte(" "), maxSpecBytes)...),
	}
	for name, b := range bodies {
		for path := range strictDecoders {
			t.Run(name+path, func(t *testing.T) { checkRejected(t, s, path, b) })
		}
	}
	// A read that fails after delivering exactly a cached spec's bytes is
	// not answered from the cache: the decoder reports the failure.
	rec := post(s, "/run", io.MultiReader(bytes.NewReader(canon), errReader{io.ErrUnexpectedEOF}))
	if want := "spec: decode: trailing data"; rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), want) {
		t.Errorf("a body cut short after a cached spec: HTTP %d %s, want 400 %q", rec.Code, rec.Body, want)
	}
}

// FuzzServeCanonicalHit checks the digest path's soundness on outside
// bytes. A server is warmed with the seven RunSpecs of the
// FuzzDecodeJobBytes seed corpus; fuzzed bodies are posted to /run under
// an already-cancelled context, so a miss is abandoned before it would
// simulate. Whenever the answer is a hit whose content address is the
// body's own SHA-256, the body must strictly decode to a RunSpec with
// that address. Run it longer with
//
//	go test -run '^$' -fuzz FuzzServeCanonicalHit -fuzztime 10s ./internal/server
func FuzzServeCanonicalHit(f *testing.F) {
	s := New(Options{Workers: 2})
	seeds, err := readSeedCorpus("../spec/testdata/fuzz/FuzzDecodeJobBytes", "runspec-")
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) != 7 {
		f.Fatalf("%d runspec seeds, want 7", len(seeds))
	}
	for _, b := range seeds {
		rs, err := spec.Decode(bytes.NewReader(b))
		if err != nil {
			f.Fatal(err)
		}
		if _, _, _, err := s.Result(context.Background(), rs); err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(append(bytes.Clone(b), '\n'))
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, b []byte) {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/run", bytes.NewReader(b)).WithContext(cancelled))
		hash := rec.Header().Get("X-Oovrd-Spec-Hash")
		if rec.Header().Get("X-Oovrd-Cache") != "hit" || hash != digest(b) {
			return
		}
		rs, err := spec.Decode(bytes.NewReader(b))
		if err != nil {
			t.Fatalf("a body answered by its digest does not decode: %v\n%s", err, b)
		}
		if h, err := rs.Hash(); err != nil || h != hash {
			t.Fatalf("a body answered by its digest hashes to %s (%v), not %s\n%s", h, err, hash, b)
		}
	})
}

// readSeedCorpus returns the values of the one-[]byte fuzz corpus files
// in dir whose names start with prefix.
func readSeedCorpus(dir, prefix string) ([][]byte, error) {
	paths, err := filepath.Glob(filepath.Join(dir, prefix+"*"))
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		v, head := strings.CutPrefix(string(data), "go test fuzz v1\n[]byte(")
		v, tail := strings.CutSuffix(strings.TrimSpace(v), ")")
		if !head || !tail {
			return nil, fmt.Errorf("%s: not a one-[]byte corpus file", p)
		}
		b, err := strconv.Unquote(v)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, []byte(b))
	}
	return out, nil
}
