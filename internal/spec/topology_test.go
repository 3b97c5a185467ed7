package spec

import (
	"strings"
	"testing"

	"oovr/internal/multigpu"
)

// topoSpec returns a ready spec whose hardware carries the given topology
// spelling.
func topoSpec(topology string) RunSpec {
	opt := multigpu.DefaultOptions()
	opt.Config.Topology = topology
	return RunSpec{
		Workload:  WorkloadRef{Name: "DM3-640"},
		Scheduler: SchedulerRef{Name: "oovr"},
		Hardware:  &opt,
	}
}

// TestTopologyContentAddressStable pins the compatibility guarantee of the
// topology axis: a spec that never names a topology must keep the content
// address it had before the axis existed — which also means an explicit
// "fullmesh" (any spelling) folds to the same address, since the default
// canonicalizes to the empty field.
func TestTopologyContentAddressStable(t *testing.T) {
	want, err := topoSpec("").Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{"fullmesh", "FullMesh", "full-mesh"} {
		h, err := topoSpec(spelling).Hash()
		if err != nil {
			t.Fatalf("%q: %v", spelling, err)
		}
		if h != want {
			t.Errorf("topology %q hashed to %s, want the pre-topology address %s", spelling, h, want)
		}
		n, err := topoSpec(spelling).Normalized()
		if err != nil {
			t.Fatal(err)
		}
		if n.Hardware.Config.Topology != "" {
			t.Errorf("topology %q normalized to %q, want the empty default spelling",
				spelling, n.Hardware.Config.Topology)
		}
	}
}

// TestTopologyAliasCanonicalizes pins that alias and case spellings of a
// non-default topology share one canonical form and content address.
func TestTopologyAliasCanonicalizes(t *testing.T) {
	want, err := topoSpec("switch").Hash()
	if err != nil {
		t.Fatal(err)
	}
	for _, spelling := range []string{"Switch", "crossbar", "CROSSBAR"} {
		n, err := topoSpec(spelling).Normalized()
		if err != nil {
			t.Fatalf("%q: %v", spelling, err)
		}
		if n.Hardware.Config.Topology != "switch" {
			t.Errorf("topology %q normalized to %q, want switch", spelling, n.Hardware.Config.Topology)
		}
		h, err := topoSpec(spelling).Hash()
		if err != nil {
			t.Fatal(err)
		}
		if h != want {
			t.Errorf("spelling %q hashed to %s, canonical %s", spelling, h, want)
		}
	}
	// Distinct topologies must not alias.
	ring, err := topoSpec("ring").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if ring == want {
		t.Error("ring and switch specs share a content address")
	}
}

// TestUnknownTopologyRejected pins the resolve-time validation: an unknown
// topology errors (no panic) and reports the registered alternatives, on
// both the full resolve and the options-only validation path.
func TestUnknownTopologyRejected(t *testing.T) {
	s := topoSpec("torus9d")
	_, resolveErr := s.Resolve()
	_, interconnectErr := s.Hardware.Interconnect()
	for name, err := range map[string]error{
		"Resolve":      resolveErr,
		"Interconnect": interconnectErr,
	} {
		if err == nil {
			t.Fatalf("%s accepted an unknown topology", name)
		}
		if !strings.Contains(err.Error(), "registered:") || !strings.Contains(err.Error(), "fullmesh") {
			t.Errorf("%s error %q does not list the registered topologies", name, err)
		}
	}
	// Bad numeric topology parameters are input errors too.
	bad := topoSpec("mesh2d")
	bad.Hardware.Config.TopologyMeshCols = -3
	if _, err := bad.Resolve(); err == nil {
		t.Error("negative MeshCols accepted")
	}
}

// TestInertTopologyParamsFoldOut pins the cache-dedup half of the
// canonical form: a knob the named topology never reads (or an explicitly
// spelled default) must not change the spec's content address, or
// identical runs would miss the result cache.
func TestInertTopologyParamsFoldOut(t *testing.T) {
	plain, err := topoSpec("").Hash()
	if err != nil {
		t.Fatal(err)
	}
	inert := topoSpec("fullmesh")
	inert.Hardware.Config.TopologyTrunkGBs = 32
	inert.Hardware.Config.TopologyPackageSize = 2
	h, err := inert.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h != plain {
		t.Error("inert topology knobs changed a fullmesh spec's content address")
	}

	// switch: the explicit half-bisection default folds, a real budget
	// does not.
	def := topoSpec("switch")
	explicit := topoSpec("switch")
	explicit.Hardware.Config.TopologyBackplaneGBs =
		float64(explicit.Hardware.Config.NumGPMs) / 2 * explicit.Hardware.Config.InterGPMLinkGBs
	hd, _ := def.Hash()
	he, err := explicit.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if hd != he {
		t.Error("explicitly spelled default backplane budget changed the content address")
	}
	custom := topoSpec("switch")
	custom.Hardware.Config.TopologyBackplaneGBs = 100
	hc, _ := custom.Hash()
	if hc == hd {
		t.Error("a non-default backplane budget must change the content address")
	}
}

// TestTopologySpecExecutes runs a routed topology end to end through the
// spec layer and checks it actually changes the simulated machine: shared
// hops must slow the run down relative to the dedicated full mesh, and the
// per-link metrics must carry the topology's link names.
func TestTopologySpecExecutes(t *testing.T) {
	mesh, err := topoSpec("").Run()
	if err != nil {
		t.Fatal(err)
	}
	ring, err := topoSpec("ring").Run()
	if err != nil {
		t.Fatal(err)
	}
	if ring.TotalCycles <= mesh.TotalCycles {
		t.Errorf("ring run (%v cycles) not slower than fullmesh (%v) — shared links had no effect",
			ring.TotalCycles, mesh.TotalCycles)
	}
	if len(mesh.Links) != 12 || len(ring.Links) != 8 {
		t.Errorf("link metrics count fullmesh=%d ring=%d, want 12 and 8", len(mesh.Links), len(ring.Links))
	}
	for i := 1; i < len(ring.Links); i++ {
		if ring.Links[i-1].Name >= ring.Links[i].Name {
			t.Fatalf("link metrics not sorted by name: %q before %q", ring.Links[i-1].Name, ring.Links[i].Name)
		}
	}
}

// TestLinkErrorsComeFromBuild pins where each interconnect error comes
// from: a bandwidth outside its domain is the Config's error, named by
// field, before topo.Build derives a link from it (a denormal link would
// halve to a 0 GB/s default trunk); a multi-GPM machine without link
// bandwidth and an unknown topology are Build's.
func TestLinkErrorsComeFromBuild(t *testing.T) {
	for _, c := range []struct{ hw, want string }{
		{`{"Config":{"InterGPMLinkGBs":0}}`,
			`spec: hardware: topo: link "link0->1" bandwidth 0 must be positive`},
		{`{"Config":{"Topology":"hierarchical","InterGPMLinkGBs":5e-324}}`,
			"spec: hardware: gpu: InterGPMLinkGBs 5e-324 out of [0.001,1e+06]"},
		{`{"Config":{"Topology":"hierarchical","TopologyTrunkGBs":1e-320}}`,
			"spec: hardware: gpu: TopologyTrunkGBs 1e-320 out of [0.001,1e+06]"},
		{`{"Config":{"Topology":"warp"}}`,
			`spec: hardware: topo: unknown topology "warp" (registered: chain, fullmesh, hierarchical, mesh2d, ring, switch)`},
	} {
		s, err := Decode(strings.NewReader(`{"workload":{"name":"DM3-640"},"scheduler":{"name":"oovr"},"hardware":` + c.hw + `}`))
		if err != nil {
			t.Fatalf("%s: %v", c.hw, err)
		}
		if _, err := s.Resolve(); err == nil || err.Error() != c.want {
			t.Errorf("hardware %s: Resolve = %v, want %s", c.hw, err, c.want)
		}
	}
}
