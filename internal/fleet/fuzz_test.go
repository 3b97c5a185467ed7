package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"oovr/internal/spec"
)

// FuzzParseChaos feeds arbitrary -chaos flag values to ParseChaos.
// Properties: parsing never panics, and every accepted value holds three
// probabilities in [0,1] (NaN included in neither) that sum to at most 1 —
// anything else would arm the worker with faults it can never fire, or
// silently disarm it.
//
// The seed corpus in testdata/fuzz/FuzzParseChaos holds valid flags and
// the non-finite spellings. Run it longer with
//
//	go test -run '^$' -fuzz FuzzParseChaos -fuzztime 10s ./internal/fleet
func FuzzParseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		c, err := ParseChaos(s)
		if err != nil {
			return
		}
		for _, p := range []float64{c.Crash, c.Stall, c.Corrupt} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseChaos(%q) accepted probability %v: %+v", s, p, c)
			}
		}
		if sum := c.Crash + c.Stall + c.Corrupt; sum > 1 {
			t.Fatalf("ParseChaos(%q) accepted probabilities summing to %v", s, sum)
		}
	})
}

// FuzzCoordinatorBodies posts arbitrary request bodies to the submit,
// lease and complete handlers of an in-process coordinator that holds one
// live lease (id 1) and one pending task. Properties: no handler panics or
// answers 5xx, and a body that does not decode as the endpoint's request
// is a 400.
//
// The seeds are well-formed bodies for each endpoint (a sweep, a lease
// request, the leased spec's Result and one for no known task) and a few
// malformed ones. Run it longer with
//
//	go test -run '^$' -fuzz FuzzCoordinatorBodies -fuzztime 10s ./internal/fleet
func FuzzCoordinatorBodies(f *testing.F) {
	endpoints := []struct {
		path string
		req  func() any
	}{
		{"/fleet/submit", func() any { return new([]json.RawMessage) }},
		{"/fleet/lease", func() any { return new(leaseRequest) }},
		{"/fleet/complete", func() any { return new(completeRequest) }},
	}
	canon, err := mkSpec(3).Canonical()
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct {
		endpoint uint8
		body     string
	}{
		{0, "[" + string(canon) + "]"},
		{0, "[]"},
		{0, `[{"workload":{"name":"nope"}}]`},
		{1, `{"worker":"w2"}`},
		{1, `{"worker":""}`},
		{2, fmt.Sprintf(`{"lease":1,"result":%s}`, mkResult(f, mkSpec(1)))},
		{2, fmt.Sprintf(`{"lease":1,"result":%s}`, mkResult(f, mkSpec(9)))},
		{2, `{"lease":1,"result":{}}`},
		{2, `{"lease":"1"}`},
		{0, `{`},
		{1, `[`},
		{2, ``},
	} {
		f.Add(seed.endpoint, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		c, _ := testCoordinator(t, CoordinatorOptions{})
		if _, _, err := c.Submit([]spec.RunSpec{mkSpec(1), mkSpec(2)}); err != nil {
			t.Fatal(err)
		}
		if g, err := c.Lease("w1"); err != nil || g == nil || g.Lease != 1 {
			t.Fatalf("lease: %+v, %v", g, err)
		}
		ep := endpoints[int(endpoint)%len(endpoints)]
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %q: status %d: %s", ep.path, body, rec.Code, rec.Body)
		}
		if json.Unmarshal(body, ep.req()) != nil && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q: malformed body answered %d, want 400", ep.path, body, rec.Code)
		}
	})
}
