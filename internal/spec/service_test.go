package spec

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestServiceSpecNormalizeDefaults(t *testing.T) {
	n, err := ServiceSpec{ServiceVersion: 1}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Nodes) != 1 || n.Nodes[0].Count != 4 || n.Nodes[0].Hardware == nil {
		t.Errorf("default cluster: %+v", n.Nodes)
	}
	if n.Scheduler.Name != "OO-VR" && n.Scheduler.Name != "oovr" {
		// whichever primary spelling the registry holds, it must be the
		// canonical one for the "oovr" alias
		if got := planners.Canonical("oovr"); n.Scheduler.Name != got {
			t.Errorf("scheduler = %q, want canonical %q", n.Scheduler.Name, got)
		}
	}
	if len(n.Sessions) != 1 || n.Sessions[0].Workload != "HL2-1280" || n.Sessions[0].Weight != 1 {
		t.Errorf("default mix: %+v", n.Sessions)
	}
	if len(n.LambdaSweep) != 1 || n.LambdaSweep[0] != 4 || n.Lambda != 0 {
		t.Errorf("default lambda sweep: %v (lambda %g)", n.LambdaSweep, n.Lambda)
	}
	if n.RefreshHz != 90 || n.DeadlineMs == 0 || n.HorizonMs != 1000 {
		t.Errorf("default SLO knobs: hz=%g deadline=%g horizon=%g", n.RefreshHz, n.DeadlineMs, n.HorizonMs)
	}
	if n.Router.Name != "least-loaded" || n.Motion != "hmd-pan" || n.Seed != 1 {
		t.Errorf("router=%q motion=%q seed=%d", n.Router.Name, n.Motion, n.Seed)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("normalized default spec invalid: %v", err)
	}
}

// TestServiceSpecHashStable pins that equivalent spellings share a content
// address: Lambda vs a one-point LambdaSweep, defaulted vs explicit knobs.
func TestServiceSpecHashStable(t *testing.T) {
	a := ServiceSpec{ServiceVersion: 1, Lambda: 4}
	b := ServiceSpec{ServiceVersion: 1, LambdaSweep: []float64{4}, RefreshHz: 90, Seed: 1}
	ha, err := a.Hash()
	if err != nil {
		t.Fatal(err)
	}
	hb, err := b.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Errorf("equivalent specs hash differently:\n  %s\n  %s", ha, hb)
	}
	c := ServiceSpec{ServiceVersion: 1, Lambda: 5}
	if hc, _ := c.Hash(); hc == ha {
		t.Error("different lambda, same hash")
	}
}

func TestServiceSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name string
		s    ServiceSpec
		want string
	}{
		{"bad workload", ServiceSpec{Sessions: []SessionMix{{Workload: "nope"}}}, "unknown workload"},
		{"bad trace", ServiceSpec{Motion: "nope"}, "unknown motion trace"},
		{"bad scheduler", ServiceSpec{Scheduler: SchedulerRef{Name: "nope"}}, "unknown scheduler"},
		{"bad sweep", ServiceSpec{NodeSweep: []int{0}}, "node_sweep"},
		{"multi-group sweep", ServiceSpec{Nodes: []NodeGroup{{Count: 1}, {Count: 2}}, NodeSweep: []int{2}}, "exactly one node group"},
		{"negative lambda", ServiceSpec{LambdaSweep: []float64{-1}}, "lambda"},
		{"zero count", ServiceSpec{Nodes: []NodeGroup{{Count: 0}}}, "count"},
		// Planner params resolve here, not in the run (a 500 once).
		{"bad params", ServiceSpec{Scheduler: SchedulerRef{Name: "oovr", Params: json.RawMessage(`{"TSLThreshold":2}`)}}, "TSLThreshold"},
		{"root outside the nodes", ServiceSpec{Scheduler: SchedulerRef{Name: "object", Params: json.RawMessage(`{"Root":7}`)}}, "Root 7 outside the 4-GPM system"},
		{"denormal horizon", ServiceSpec{HorizonMs: 1e-320}, "horizon_ms"},
		{"too many arrivals", ServiceSpec{LambdaSweep: []float64{1e6}, HorizonMs: 1e7}, "lambda × horizon_ms"},
	}
	for _, c := range cases {
		if err := c.s.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want error containing %q", c.name, err, c.want)
		}
	}
}

func TestDecodeJobBytes(t *testing.T) {
	j, err := DecodeJobBytes([]byte(`{"service_version":1,"lambda":2}`))
	if _, ok := j.(ServiceSpec); err != nil || !ok {
		t.Fatalf("service job: %+v, %v", j, err)
	}
	j, err = DecodeJobBytes([]byte(`{"version":1,"workload":{"name":"HL2-1280"},"scheduler":{"name":"oovr"}}`))
	if _, ok := j.(RunSpec); err != nil || !ok {
		t.Fatalf("run job: %+v, %v", j, err)
	}
	if _, err := DecodeJobBytes([]byte(`{"service_version":1,"typo":true}`)); err == nil {
		t.Error("unknown service field accepted")
	}
	// stream and timeline are not spec fields: a spec carrying one fails to
	// decode rather than alias a plain run's address.
	for _, knob := range []string{`"stream":true`, `"timeline":true`} {
		if _, err := DecodeJobBytes([]byte(`{"version":1,"workload":{"name":"HL2-1280"},"scheduler":{"name":"oovr"},` + knob + `}`)); err == nil {
			t.Errorf("run spec with %s accepted", knob)
		}
	}
	// Nor is telemetry a service spec field.
	if _, err := DecodeJobBytes([]byte(`{"service_version":1,"telemetry":{"sample_ms":5}}`)); err == nil {
		t.Error("service spec with telemetry accepted")
	}
	if _, err := DecodeJobBytes([]byte(`{"lambda":3}`)); err == nil {
		t.Error("service fields without service_version accepted as a run spec")
	}
}

// TestServiceCanonicalRoundTrip pins that the canonical encoding decodes
// back strictly and re-canonicalizes to the same bytes (a fixed point).
func TestServiceCanonicalRoundTrip(t *testing.T) {
	s := ServiceSpec{
		ServiceVersion: 1,
		Nodes:          []NodeGroup{{Count: 3}},
		LambdaSweep:    []float64{1, 2, 4},
		Sessions:       []SessionMix{{Workload: "DM3-640", Weight: 2}, {Workload: "HL2-1280"}},
		Router:         RouterRef{Name: "topology-aware"},
	}
	c1, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := DecodeService(strings.NewReader(string(c1)))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := s2.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if string(c1) != string(c2) {
		t.Errorf("canonical not a fixed point:\n%s\n%s", c1, c2)
	}
}
