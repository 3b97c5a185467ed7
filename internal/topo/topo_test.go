package topo

import (
	"reflect"
	"strings"
	"testing"
)

func mustBuild(t *testing.T, p Params) *Graph {
	t.Helper()
	g, err := Build(p)
	if err != nil {
		t.Fatalf("Build(%+v): %v", p, err)
	}
	return g
}

// routeNodes renders a route as the node sequence it visits.
func routeNodes(g *Graph, src, dst int) []int {
	nodes := []int{src}
	for _, lid := range g.Route(src, dst) {
		nodes = append(nodes, g.Links()[lid].To)
	}
	return nodes
}

func TestFullMeshMatchesPaperFabric(t *testing.T) {
	g := mustBuild(t, Params{Name: "fullmesh", NumGPMs: 4, LinkGBs: 64})
	if got := len(g.Links()); got != 12 {
		t.Fatalf("fullmesh(4) has %d links, want 12", got)
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				if g.Route(s, d) != nil {
					t.Errorf("route %d->%d should be nil", s, d)
				}
				continue
			}
			r := g.Route(s, d)
			if len(r) != 1 {
				t.Fatalf("fullmesh route %d->%d has %d hops, want 1", s, d, len(r))
			}
			l := g.Links()[r[0]]
			if l.From != s || l.To != d || l.GBs != 64 {
				t.Errorf("fullmesh route %d->%d uses wrong link %+v", s, d, l)
			}
			// The seed fabric's resource names are part of the fullmesh
			// contract (oovrsim -v output and the golden metrics carry them).
			if want := "link" + itoa(s) + "->" + itoa(d); l.Name != want {
				t.Errorf("fullmesh link name %q, want %q", l.Name, want)
			}
		}
	}
	if longestRoute(g) != 1 {
		t.Errorf("fullmesh longest route %d, want 1", longestRoute(g))
	}
}

// longestRoute is the longest route length in hops across all GPM pairs.
func longestRoute(g *Graph) int {
	d := 0
	for src := 0; src < g.NumGPMs(); src++ {
		for dst := 0; dst < g.NumGPMs(); dst++ {
			d = max(d, len(g.Route(src, dst)))
		}
	}
	return d
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestRingRoutesAndTieBreak(t *testing.T) {
	g := mustBuild(t, Params{Name: "ring", NumGPMs: 4, LinkGBs: 64})
	if got := len(g.Links()); got != 8 {
		t.Fatalf("ring(4) has %d links, want 8", got)
	}
	// 0->2 has two shortest paths (via 1 or via 3); the lowest next-hop
	// rule must pick 1.
	if got, want := routeNodes(g, 0, 2), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("ring route 0->2 visits %v, want %v (lowest next-hop tie break)", got, want)
	}
	// 2->0 likewise has ties; lowest next-hop is 1.
	if got, want := routeNodes(g, 2, 0), []int{2, 1, 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("ring route 2->0 visits %v, want %v", got, want)
	}
	// 3->1 ties between 0 and 2 -> 0.
	if got, want := routeNodes(g, 3, 1), []int{3, 0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("ring route 3->1 visits %v, want %v", got, want)
	}
	if longestRoute(g) != 2 {
		t.Errorf("ring(4) longest route %d, want 2", longestRoute(g))
	}
}

func TestRingOfTwoDegeneratesToChain(t *testing.T) {
	ring := mustBuild(t, Params{Name: "ring", NumGPMs: 2, LinkGBs: 64})
	chain := mustBuild(t, Params{Name: "chain", NumGPMs: 2, LinkGBs: 64})
	if len(ring.Links()) != len(chain.Links()) {
		t.Errorf("ring(2) has %d links, chain(2) has %d — ring must not double the pair",
			len(ring.Links()), len(chain.Links()))
	}
}

func TestChainEndToEnd(t *testing.T) {
	g := mustBuild(t, Params{Name: "chain", NumGPMs: 4, LinkGBs: 64})
	if got, want := routeNodes(g, 0, 3), []int{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("chain route 0->3 visits %v, want %v", got, want)
	}
	if longestRoute(g) != 3 {
		t.Errorf("chain(4) longest route %d, want 3", longestRoute(g))
	}
}

func TestMesh2DRouting(t *testing.T) {
	// 2x2 grid: 0 1 / 2 3.
	g := mustBuild(t, Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64})
	if got := len(g.Links()); got != 8 {
		t.Fatalf("mesh2d(2x2) has %d links, want 8", got)
	}
	// 0->3: via 1 or via 2; lowest next-hop picks 1.
	if got, want := routeNodes(g, 0, 3), []int{0, 1, 3}; !reflect.DeepEqual(got, want) {
		t.Errorf("mesh2d route 0->3 visits %v, want %v", got, want)
	}
	// A 1xN mesh is the chain.
	row := mustBuild(t, Params{Name: "mesh2d", NumGPMs: 3, LinkGBs: 64, MeshCols: 3})
	if got, want := routeNodes(row, 0, 2), []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("mesh2d 1x3 route 0->2 visits %v, want %v", got, want)
	}
}

func TestSwitchFunnelsThroughBackplane(t *testing.T) {
	g := mustBuild(t, Params{Name: "switch", NumGPMs: 4, LinkGBs: 64})
	// 4 up + 1 backplane + 4 down.
	if got := len(g.Links()); got != 9 {
		t.Fatalf("switch(4) has %d links, want 9", got)
	}
	var backplane *Link
	for i := range g.Links() {
		if g.Links()[i].Name == "backplane" {
			backplane = &g.Links()[i]
		}
	}
	if backplane == nil {
		t.Fatal("switch has no backplane link")
	}
	if backplane.GBs != 64*4/2 {
		t.Errorf("default backplane budget %v, want half-bisection %v", backplane.GBs, 64.0*4/2)
	}
	for s := 0; s < 4; s++ {
		for d := 0; d < 4; d++ {
			if s == d {
				continue
			}
			r := g.Route(s, d)
			if len(r) != 3 || r[1] != backplane.ID {
				t.Errorf("switch route %d->%d = %v, want up/backplane/down", s, d, r)
			}
		}
	}
	over := mustBuild(t, Params{Name: "switch", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: 512})
	for _, l := range over.Links() {
		if l.Name == "backplane" && l.GBs != 512 {
			t.Errorf("explicit backplane budget %v, want 512", l.GBs)
		}
	}
}

func TestHierarchicalPackagesAndTrunk(t *testing.T) {
	g := mustBuild(t, Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64})
	// Packages {0,1} and {2,3}: intra-package direct, cross-package via
	// routers and a trunk at half bandwidth.
	if got, want := routeNodes(g, 0, 1), []int{0, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("intra-package route 0->1 visits %v, want direct %v", got, want)
	}
	r := g.Route(0, 3)
	if len(r) != 3 {
		t.Fatalf("cross-package route 0->3 has %d hops, want 3", len(r))
	}
	trunk := g.Links()[r[1]]
	if !strings.HasPrefix(trunk.Name, "trunk") || trunk.GBs != 32 {
		t.Errorf("cross-package middle hop %+v, want a trunk at 32 GB/s", trunk)
	}
	// A single package is a plain full mesh.
	one := mustBuild(t, Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64, PackageSize: 4})
	if longestRoute(one) != 1 {
		t.Errorf("single-package hierarchical longest route %d, want 1", longestRoute(one))
	}
}

func TestAliasesAndCanonicalNames(t *testing.T) {
	for spelling, want := range map[string]string{
		"":          "fullmesh",
		"FullMesh":  "fullmesh",
		"full-mesh": "fullmesh",
		"crossbar":  "switch",
		"mcm":       "hierarchical",
		"mesh":      "mesh2d",
		"line":      "chain",
		"RING":      "ring",
		"no-such":   "no-such",
	} {
		if got := CanonicalName(spelling); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", spelling, got, want)
		}
	}
}

func TestValidation(t *testing.T) {
	// The parameters' domains are gpu.Config.Validate's; Build rejects
	// what only it can know: the name, a bad link, a cut fabric.
	cases := []Params{
		{Name: "warp", NumGPMs: 4, LinkGBs: 64}, // unknown name
		{Name: "ring", NumGPMs: 4},              // no bandwidth: 0 GB/s links
		{Name: "switch", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: -1},
	}
	for _, p := range cases {
		if _, err := Build(p); err == nil {
			t.Errorf("Build(%+v) accepted an invalid configuration", p)
		}
	}
	if _, err := Build(Params{NumGPMs: 1}); err != nil {
		t.Errorf("single-GPM params should build (no links needed): %v", err)
	}
	if _, err := Build(Params{Name: "Crossbar", NumGPMs: 8, LinkGBs: 32}); err != nil {
		t.Errorf("alias + case variant should build: %v", err)
	}
}

// TestBadLinkIsBuildError pins that a link AddLink cannot add is Build's
// error, not a panic: the smallest positive LinkGBs halves to a 0 GB/s
// default trunk, and a builder's self-link is reported by name.
func TestBadLinkIsBuildError(t *testing.T) {
	_, err := Build(Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 5e-324})
	if err == nil || !strings.Contains(err.Error(), `link "trunk0->1" bandwidth 0 must be positive`) {
		t.Errorf("underflowed trunk: Build error %v, want one naming the trunk link", err)
	}
	gb := &GraphBuilder{g: &Graph{}}
	gb.AddNode("a")
	gb.AddLink("loop", 0, 0, 64)
	gb.AddLink("zero", 0, 0, 0)
	if gb.err == nil || gb.err.Error() != `topo: self-link "loop" on node 0` {
		t.Errorf("AddLink recorded %v, want the first bad link, the self-link", gb.err)
	}
}

// TestShapeParamsSurviveGPMSweeps pins the graceful-degradation contract:
// a topology configured at one scale must stay buildable at every GPM
// count, because the harness's scaling figures re-derive the same config
// with WithGPMs(1..8).
func TestShapeParamsSurviveGPMSweeps(t *testing.T) {
	for _, base := range []Params{
		{Name: "mesh2d", LinkGBs: 64, MeshCols: 4},
		{Name: "hierarchical", LinkGBs: 64, PackageSize: 4},
		{Name: "switch", LinkGBs: 64, BackplaneGBs: 128},
		{Name: "ring", LinkGBs: 64},
	} {
		for n := 1; n <= 8; n++ {
			p := base
			p.NumGPMs = n
			g, err := Build(p)
			if err != nil {
				t.Errorf("%s at %d GPMs: %v", base.Name, n, err)
				continue
			}
			if n > 1 && longestRoute(g) == 0 {
				t.Errorf("%s at %d GPMs built no routes", base.Name, n)
			}
		}
	}
	// The documented degradations: an oversized package is one package (a
	// full mesh); an over-wide grid is a single row (the chain).
	one := mustBuild(t, Params{Name: "hierarchical", NumGPMs: 2, LinkGBs: 64, PackageSize: 4})
	if longestRoute(one) != 1 {
		t.Errorf("oversized package longest route %d, want 1 (full mesh)", longestRoute(one))
	}
	row := mustBuild(t, Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 9})
	chain := mustBuild(t, Params{Name: "chain", NumGPMs: 4, LinkGBs: 64})
	if longestRoute(row) != longestRoute(chain) || len(row.Links()) != len(chain.Links()) {
		t.Errorf("over-wide mesh2d (longest route %d, %d links) is not the chain (longest route %d, %d links)",
			longestRoute(row), len(row.Links()), longestRoute(chain), len(chain.Links()))
	}
}

// TestCanonicalParams pins the canonicalization the spec layer's content
// addresses rely on: inert shape parameters and explicitly spelled
// defaults fold to zero, parameters the topology reads survive.
func TestCanonicalParams(t *testing.T) {
	cases := []struct{ in, want Params }{
		// Inert knobs on fullmesh/ring fold away.
		{Params{Name: "FullMesh", NumGPMs: 4, LinkGBs: 64, TrunkGBs: 32, MeshCols: 2},
			Params{Name: "fullmesh", NumGPMs: 4, LinkGBs: 64}},
		{Params{Name: "ring", NumGPMs: 4, LinkGBs: 64, PackageSize: 2},
			Params{Name: "ring", NumGPMs: 4, LinkGBs: 64}},
		// Explicit defaults fold; non-defaults survive.
		{Params{Name: "crossbar", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: 128},
			Params{Name: "switch", NumGPMs: 4, LinkGBs: 64}},
		{Params{Name: "switch", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: 100},
			Params{Name: "switch", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: 100}},
		{Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64, PackageSize: 2, TrunkGBs: 32},
			Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64}},
		{Params{Name: "hierarchical", NumGPMs: 8, LinkGBs: 64, PackageSize: 4, TrunkGBs: 16},
			Params{Name: "hierarchical", NumGPMs: 8, LinkGBs: 64, PackageSize: 4, TrunkGBs: 16}},
		{Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 2},
			Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64}},
		{Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 4},
			Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 4}},
		// Oversized shapes clamp to their smallest equivalent: every grid
		// wider than the GPM count is the same single row, and a package
		// covering all GPMs makes the trunk inert too.
		{Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 9},
			Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 4}},
		{Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 5},
			Params{Name: "mesh2d", NumGPMs: 4, LinkGBs: 64, MeshCols: 4}},
		{Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64, PackageSize: 4, TrunkGBs: 7},
			Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64, PackageSize: 4}},
		{Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64, PackageSize: 9},
			Params{Name: "hierarchical", NumGPMs: 4, LinkGBs: 64, PackageSize: 4}},
		// Unknown names keep everything (the registry cannot know what a
		// foreign builder reads; resolution will error on the name anyway).
		{Params{Name: "warp", NumGPMs: 4, LinkGBs: 64, TrunkGBs: 5},
			Params{Name: "warp", NumGPMs: 4, LinkGBs: 64, TrunkGBs: 5}},
	}
	for _, c := range cases {
		if got := CanonicalParams(c.in); got != c.want {
			t.Errorf("CanonicalParams(%+v) = %+v, want %+v", c.in, got, c.want)
		}
	}
	// The canonical form must build the same graph as the original.
	in := Params{Name: "crossbar", NumGPMs: 4, LinkGBs: 64, BackplaneGBs: 128, MeshCols: 3}
	a := mustBuild(t, in)
	b := mustBuild(t, CanonicalParams(in))
	if !reflect.DeepEqual(a.Links(), b.Links()) {
		t.Error("canonical params built a different graph")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	for _, name := range Names() {
		p := Params{Name: name, NumGPMs: 6, LinkGBs: 64}
		a := mustBuild(t, p)
		b := mustBuild(t, p)
		if !reflect.DeepEqual(a.Links(), b.Links()) {
			t.Errorf("%s: two builds produced different link sets", name)
		}
		for s := 0; s < 6; s++ {
			for d := 0; d < 6; d++ {
				if !reflect.DeepEqual(a.Route(s, d), b.Route(s, d)) {
					t.Errorf("%s: route %d->%d differs across builds", name, s, d)
				}
			}
		}
	}
}
