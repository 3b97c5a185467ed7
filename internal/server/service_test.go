package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"oovr/internal/service"
	"oovr/internal/spec"
)

// smallService is a two-cell λ sweep small enough to simulate in well
// under a second.
func smallService() spec.ServiceSpec {
	return spec.ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []spec.NodeGroup{{Count: 2}},
		Sessions:       []spec.SessionMix{{Workload: "DM3-640"}},
		LambdaSweep:    []float64{4, 16},
		MeanFrames:     5,
		HorizonMs:      300,
		Seed:           7,
	}
}

func postService(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/service", "application/json", bytes.NewReader(body))
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

// TestServiceMatchesInProcess pins POST /service: the first submission is
// a cache miss, the second a hit, and both bodies are byte-identical to an
// in-process service.Run of the same spec.
func TestServiceMatchesInProcess(t *testing.T) {
	srv, ts := newTestServer(t)
	sp := smallService()
	rep, err := service.Run(sp, service.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := sp.Hash()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	for i, cache := range []string{"miss", "hit"} {
		resp, got := postService(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("submission %d: HTTP %d: %s", i, resp.StatusCode, got)
		}
		if h := resp.Header.Get("X-Oovrd-Cache"); h != cache {
			t.Errorf("submission %d: X-Oovrd-Cache = %q, want %q", i, h, cache)
		}
		if h := resp.Header.Get("X-Oovrd-Spec-Hash"); h != hash {
			t.Errorf("submission %d: X-Oovrd-Spec-Hash = %q, want %q", i, h, hash)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("submission %d: body differs from service.Run (%d vs %d bytes)", i, len(got), len(want))
		}
	}
	if st := srv.Stats(); st.Runs != 1 || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("stats after miss+hit: %+v", st)
	}
}

// TestServiceRejections covers the /service input errors: a router the
// registry does not know (a resolve error, caught before any simulation)
// and a RunSpec document sent to the service endpoint are both the
// submitter's fault, 400.
func TestServiceRejections(t *testing.T) {
	srv, ts := newTestServer(t)
	sp := smallService()
	sp.Router = spec.RouterRef{Name: "no-such-router"}
	badRouter, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	runSpec, err := json.Marshal(spec.RunSpec{
		Workload:  spec.WorkloadRef{Name: "DM3-640"},
		Scheduler: spec.SchedulerRef{Name: "oovr"},
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(smallService())
	if err != nil {
		t.Fatal(err)
	}
	// telemetry is not a spec field: the strict decoder refuses it.
	telemetry := append(bytes.TrimSuffix(plain, []byte("}")), `,"telemetry":{"sample_ms":5}}`...)
	for name, body := range map[string][]byte{"unknown router": badRouter, "RunSpec body": runSpec, "telemetry": telemetry} {
		resp, out := postService(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", name, resp.StatusCode, out)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &e); err != nil || e.Error == "" {
			t.Errorf("%s: body %s is not an error element", name, out)
		}
	}
	if st := srv.Stats(); st.Runs != 0 || st.Errors != 3 {
		t.Errorf("stats after three rejections: %+v", st)
	}
}
