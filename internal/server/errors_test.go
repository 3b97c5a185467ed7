package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"oovr/internal/spec"
)

// builtinSchedulers is the registered-scheduler list the unknown-scheduler
// error carries when no test has registered a planner of its own.
const builtinSchedulers = "afr, baseline, object, ooapp, oovr, single, tileh, tilev"

// TestUnknownNameErrors pins the answer to an unknown name on each of the
// six named spec axes: a 400 whose body is the resolution error, byte for
// byte, with the sorted registered alternatives. An out-of-range hardware
// option is a 400 the same way, not a run that panics in a worker.
func TestUnknownNameErrors(t *testing.T) {
	_, ts := newTestServer(t)
	const svc = `{"service_version":1,"nodes":[{"count":2}],"sessions":[{"workload":"DM3-640"}],` +
		`"lambda_sweep":[4],"mean_frames":5,"horizon_ms":300,"seed":7`
	for _, c := range []struct {
		axis, path, body, want string
	}{
		{"scheduler", "/run", `{"workload":{"name":"WE"},"scheduler":{"name":"bogus"}}`,
			`spec: unknown scheduler "bogus" (registered: ` + builtinSchedulers + `)`},
		{"workload", "/run", `{"workload":{"name":"bogus"},"scheduler":{"name":"oovr"}}`,
			`spec: unknown workload "bogus" (registered: DM3-1280, DM3-1600, DM3-640, HL2-1280, HL2-1600, HL2-640, NFS, SanMiguel, Sponza, UT3, WE)`},
		{"layout", "/run", `{"workload":{"name":"WE"},"scheduler":{"name":"oovr"},"placement":"bogus"}`,
			`spec: unknown placement layout "bogus" (registered: gpm0, partitioned, striped)`},
		{"topology", "/run", `{"workload":{"name":"WE"},"scheduler":{"name":"oovr"},"hardware":{"Config":{"Topology":"bogus"}}}`,
			`spec: hardware: topo: unknown topology "bogus" (registered: chain, fullmesh, hierarchical, mesh2d, ring, switch)`},
		{"hardware option", "/run", `{"workload":{"name":"DM3-640"},"scheduler":{"name":"tilev"},"hardware":{"RemoteCacheHitRate":2}}`,
			`spec: hardware: mem: RemoteCacheHitRate 2 out of [0,1]`},
		{"router", "/service", svc + `,"router":{"name":"bogus"}}`,
			`service: unknown router "bogus" (registered: least-loaded, round-robin, topology-aware)`},
		{"motion trace", "/service", svc + `,"motion":"nope"}`,
			`spec: unknown motion trace "nope" (registered: [hmd-pan])`},
	} {
		t.Run(c.axis, func(t *testing.T) {
			want := c.want
			if names := strings.Join(spec.PlannerNames(), ", "); c.axis == "scheduler" && strings.Contains(names, "test-") {
				// Another test registered a test- planner first; it joins
				// the list.
				want = strings.Replace(want, builtinSchedulers, names, 1)
			}
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("HTTP %d, want 400", resp.StatusCode)
			}
			wantBody, _ := json.Marshal(map[string]string{"error": want})
			if string(got) != string(wantBody) {
				t.Errorf("body\n got %s\nwant %s", got, wantBody)
			}
		})
	}
}
