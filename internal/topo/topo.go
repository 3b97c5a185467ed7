// Package topo models configurable inter-GPM interconnect topologies.
//
// The paper assumes an idealized full mesh: one dedicated point-to-point
// NVLink pair per GPM pair, so "the intercommunication between two GPMs will
// not be interfered by other GPMs" (Section 3). Real NUMA multi-GPU parts —
// MCM-GPU style packages, switch-based NVLink systems, ring and mesh fabrics
// — route traffic over *shared* physical links, where OO-VR's locality
// advantage matters more. This package turns that single assumption into a
// first-class experiment axis.
//
// A Graph is a directed multigraph over nodes (the GPMs plus any internal
// switch/router nodes a topology introduces) whose edges are physical links
// with a per-direction bandwidth. Routing is deterministic shortest path by
// hop count, ties broken by the lowest next-hop node ID (and lowest link ID
// between parallel links), precomputed for every GPM pair at build time —
// the same Params always yield the same routes, which the determinism tests
// rely on.
//
// Named builders register in a registry.Table, the name table the spec
// layer uses for schedulers and layouts; Build resolves a name
// (case-insensitive, aliases accepted) and constructs the graph. The
// built-ins are:
//
//   - fullmesh: the paper's dedicated pairwise links (the default);
//   - ring: a bidirectional cycle gpm i <-> gpm (i+1) mod N;
//   - chain: the open ring (no wraparound link);
//   - mesh2d: a 2D grid with 4-neighbour links (MeshCols columns);
//   - switch: a crossbar — per-GPM ingress/egress ports into a shared
//     backplane with its own bandwidth budget;
//   - hierarchical: MCM-GPU style packages — full-mesh links inside a
//     package, per-package routers joined by a slower off-package trunk.
//
// DESIGN.md §8 documents the model, the routing determinism rules, and the
// contention semantics of multi-hop flows.
package topo

import (
	"fmt"
	"math"

	"oovr/internal/registry"
)

// Default is the topology every existing configuration implies: the paper's
// dedicated pairwise links. An empty topology name means Default.
const Default = "fullmesh"

// Params describe the interconnect to build. Zero values select the
// documented defaults, so a Params carrying only Name/NumGPMs/LinkGBs is
// complete for every topology. Shape parameters that exceed the GPM count
// degrade gracefully rather than erroring — a MeshCols wider than the GPM
// count is a single grid row, a PackageSize covering every GPM is one
// package (a full mesh) — so a topology chosen at one scale stays valid
// across the harness's GPM-count sweeps (Figure 18 re-derives the same
// config at 1..8 GPMs).
type Params struct {
	// Name is the registered topology name ("" means fullmesh).
	Name string
	// NumGPMs is the GPM count (must be positive).
	NumGPMs int
	// LinkGBs is the per-direction bandwidth of a GPM-attached link, GB/s
	// (Table 2: 64). Must be positive when NumGPMs > 1.
	LinkGBs float64
	// MeshCols is mesh2d's column count (0 = the squarest grid; wider than
	// NumGPMs = one row).
	MeshCols int
	// PackageSize is hierarchical's GPMs per package (0 = 2; NumGPMs or
	// more = one package, a plain full mesh).
	PackageSize int
	// TrunkGBs is hierarchical's off-package trunk bandwidth per direction
	// (0 = LinkGBs/2, the MCM-GPU-style on/off-package asymmetry).
	TrunkGBs float64
	// BackplaneGBs is switch's shared backplane budget (0 = NumGPMs/2 x
	// LinkGBs, a half-bisection crossbar).
	BackplaneGBs float64
}

// Link is one directed physical link of the fabric.
type Link struct {
	// ID is the link's index in Graph.Links(), assigned in construction
	// order (deterministic for a given Params).
	ID int
	// Name is the diagnostic name ("link0->1", "up2", "backplane", ...).
	Name string
	// From and To are node indices (GPMs are nodes 0..NumGPMs-1; internal
	// switch/router nodes follow).
	From, To int
	// GBs is the per-direction bandwidth in GB/s.
	GBs float64
}

// Graph is a built topology: nodes, physical links, and the precomputed
// deterministic route for every ordered GPM pair.
type Graph struct {
	name    string
	numGPMs int
	nodes   []string // node names; the first numGPMs are the GPMs
	links   []Link
	// routes[src][dst] is the ordered list of link IDs a flow src->dst
	// traverses (nil when src == dst).
	routes [][][]int
}

// Name returns the canonical topology name the graph was built from.
func (g *Graph) Name() string { return g.name }

// NumGPMs returns the GPM count.
func (g *Graph) NumGPMs() int { return g.numGPMs }

// Links returns the physical links in ID order. The caller must not mutate
// the returned slice.
func (g *Graph) Links() []Link { return g.links }

// Route returns the link-ID path a flow from GPM src to GPM dst traverses,
// in traversal order (nil when src == dst). The caller must not mutate it.
func (g *Graph) Route(src, dst int) []int {
	return g.routes[src][dst]
}

// Diameter returns the longest route length in hops across all GPM pairs.
func (g *Graph) Diameter() int {
	d := 0
	for s := range g.routes {
		for _, r := range g.routes[s] {
			if len(r) > d {
				d = len(r)
			}
		}
	}
	return d
}

// Builder constructs the links of a topology into gb. It runs after the
// GPM nodes exist and Params validation passed; it adds any internal nodes
// and the links.
type Builder func(gb *GraphBuilder, p Params) error

// builders is the topology name table: case-insensitive, aliases accepted.
var builders = registry.New[Builder]("topo", "topology", true)

// Register adds a named topology builder (plus aliases), so hardware
// configurations can reference it by string. Names are case-insensitive;
// registering a taken name panics.
func Register(name string, build Builder, aliases ...string) {
	if build == nil {
		panic("topo: nil builder for " + name)
	}
	builders.Register(name, build, aliases...)
}

// Names returns the sorted primary names of all registered topologies.
func Names() []string { return builders.Names() }

// CanonicalName maps any accepted spelling (case variant or alias) to the
// registered primary name; unregistered names come back unchanged so the
// build error can report them verbatim. The empty name canonicalizes to
// Default.
func CanonicalName(name string) string {
	if name == "" {
		return Default
	}
	return builders.Canonical(name)
}

// CanonicalParams maps Params to their canonical form, so that equal runs
// submitted with different spellings share one spec content address and
// hit the same result cache entry. For the built-in topologies it folds:
// the name to its primary spelling; shape parameters the named topology
// never reads to zero; explicitly spelled default values to zero; and
// oversized shape values to their smallest equivalent (every MeshCols
// beyond NumGPMs is the same single row, every package covering all GPMs
// the same single package, which also makes the trunk inert). It is not a
// graph-isomorphism fold: distinct names, and the few degenerate spellings
// within a name that happen to coincide (a one-column grid builds the
// chain's graph), keep distinct addresses — costing at most a duplicate
// cache entry, never a wrong result. A user-registered name keeps its
// parameters untouched, since the registry cannot know which ones a
// foreign builder consumes.
func CanonicalParams(p Params) Params {
	p.Name = CanonicalName(p.Name)
	switch p.Name {
	case Default, "ring", "chain":
		p.MeshCols, p.PackageSize, p.TrunkGBs, p.BackplaneGBs = 0, 0, 0, 0
	case "mesh2d":
		p.PackageSize, p.TrunkGBs, p.BackplaneGBs = 0, 0, 0
		if p.MeshCols > p.NumGPMs {
			p.MeshCols = p.NumGPMs // any wider grid is the same single row
		}
		if p.MeshCols == int(math.Ceil(math.Sqrt(float64(p.NumGPMs)))) {
			p.MeshCols = 0
		}
	case "switch":
		p.MeshCols, p.PackageSize, p.TrunkGBs = 0, 0, 0
		if p.BackplaneGBs == p.LinkGBs*float64(p.NumGPMs)/2 {
			p.BackplaneGBs = 0
		}
	case "hierarchical":
		p.MeshCols, p.BackplaneGBs = 0, 0
		if p.PackageSize >= p.NumGPMs && p.NumGPMs > 0 {
			// One package covering every GPM: the exact size and the trunk
			// bandwidth are inert (the build is a plain full mesh).
			p.PackageSize, p.TrunkGBs = p.NumGPMs, 0
		}
		if p.PackageSize == 2 {
			p.PackageSize = 0
		}
		if p.TrunkGBs == p.LinkGBs/2 {
			p.TrunkGBs = 0
		}
	}
	return p
}

// Build resolves the named topology and constructs its graph. Every link
// must be valid and every GPM pair connected; a builder producing a bad
// link or a partitioned fabric is rejected here rather than failing a
// simulation.
func Build(p Params) (*Graph, error) {
	name := p.Name
	if name == "" {
		name = Default
	}
	build, ok := builders.Lookup(name)
	if !ok {
		return nil, builders.Unknown(name)
	}
	if p.NumGPMs <= 0 {
		return nil, fmt.Errorf("topo: NumGPMs %d must be positive", p.NumGPMs)
	}
	if p.NumGPMs > 1 && !(p.LinkGBs > 0) {
		return nil, fmt.Errorf("topo: LinkGBs %v must be positive for multi-GPM systems", p.LinkGBs)
	}
	if p.MeshCols < 0 || p.PackageSize < 0 || p.TrunkGBs < 0 || p.BackplaneGBs < 0 {
		return nil, fmt.Errorf("topo: topology parameters must be non-negative")
	}
	gb := &GraphBuilder{g: &Graph{name: CanonicalName(name), numGPMs: p.NumGPMs}}
	for i := 0; i < p.NumGPMs; i++ {
		gb.AddNode(fmt.Sprintf("gpm%d", i))
	}
	if p.NumGPMs > 1 {
		if err := build(gb, p); err != nil {
			return nil, err
		}
		if gb.err != nil {
			return nil, gb.err
		}
	}
	g := gb.g
	if err := g.computeRoutes(); err != nil {
		return nil, err
	}
	return g, nil
}

// GraphBuilder accumulates nodes and links during Build; builders receive
// it with the GPM nodes already created.
type GraphBuilder struct {
	g   *Graph
	err error // the first bad link AddLink was given
}

// AddNode adds an internal (non-GPM) node and returns its index.
func (gb *GraphBuilder) AddNode(name string) int {
	gb.g.nodes = append(gb.g.nodes, name)
	return len(gb.g.nodes) - 1
}

// AddLink adds a directed link and returns its ID. The first self-link or
// non-positive bandwidth it is given becomes Build's error: a bandwidth
// derived from a valid LinkGBs can still underflow to 0.
func (gb *GraphBuilder) AddLink(name string, from, to int, gbs float64) int {
	switch {
	case gb.err != nil:
	case from == to:
		gb.err = fmt.Errorf("topo: self-link %q on node %d", name, from)
	case !(gbs > 0):
		gb.err = fmt.Errorf("topo: link %q bandwidth %v must be positive", name, gbs)
	}
	id := len(gb.g.links)
	gb.g.links = append(gb.g.links, Link{ID: id, Name: name, From: from, To: to, GBs: gbs})
	return id
}

// computeRoutes precomputes the deterministic shortest-hop route for every
// ordered GPM pair: hop-count BFS distances toward each destination, then a
// greedy walk that always steps to the admissible neighbour with the lowest
// node ID (and the lowest link ID between parallel links). The walk is what
// makes ties deterministic — the rule is part of the model's contract, not
// an implementation accident.
func (g *Graph) computeRoutes() error {
	nNodes := len(g.nodes)
	// Out-adjacency, link IDs ascending (construction order) per node.
	adj := make([][]int, nNodes) // node -> link IDs leaving it
	radj := make([][]int, nNodes)
	for _, l := range g.links {
		adj[l.From] = append(adj[l.From], l.ID)
		radj[l.To] = append(radj[l.To], l.ID)
	}
	const unreachable = math.MaxInt32
	g.routes = make([][][]int, g.numGPMs)
	dist := make([]int, nNodes)
	queue := make([]int, 0, nNodes)
	for dst := 0; dst < g.numGPMs; dst++ {
		// BFS on the reversed graph: dist[u] = hops from u to dst.
		for i := range dist {
			dist[i] = unreachable
		}
		dist[dst] = 0
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, lid := range radj[u] {
				v := g.links[lid].From
				if dist[v] == unreachable {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
		for src := 0; src < g.numGPMs; src++ {
			if g.routes[src] == nil {
				g.routes[src] = make([][]int, g.numGPMs)
			}
			if src == dst {
				continue
			}
			if dist[src] == unreachable {
				return fmt.Errorf("topo: %s leaves gpm%d unable to reach gpm%d", g.name, src, dst)
			}
			route := make([]int, 0, dist[src])
			u := src
			for u != dst {
				// Lowest next-hop node ID among the neighbours one hop
				// closer; lowest link ID between parallel links to it.
				best := -1
				for _, lid := range adj[u] {
					v := g.links[lid].To
					if dist[v] != dist[u]-1 {
						continue
					}
					if best == -1 || v < g.links[best].To {
						best = lid
					}
				}
				route = append(route, best)
				u = g.links[best].To
			}
			g.routes[src][dst] = route
		}
	}
	return nil
}

// The built-in topologies.

func init() {
	Register(Default, buildFullMesh, "full-mesh")
	Register("ring", buildRing)
	Register("chain", buildChain, "line")
	Register("mesh2d", buildMesh2D, "mesh")
	Register("switch", buildSwitch, "crossbar")
	Register("hierarchical", buildHierarchical, "mcm", "package")
}

// buildFullMesh reproduces the paper's fabric exactly: one dedicated link
// per ordered GPM pair, named as the original link.Fabric named them.
func buildFullMesh(gb *GraphBuilder, p Params) error {
	for i := 0; i < p.NumGPMs; i++ {
		for j := 0; j < p.NumGPMs; j++ {
			if i != j {
				gb.AddLink(fmt.Sprintf("link%d->%d", i, j), i, j, p.LinkGBs)
			}
		}
	}
	return nil
}

// buildChain links neighbours i <-> i+1 with no wraparound.
func buildChain(gb *GraphBuilder, p Params) error {
	for i := 0; i+1 < p.NumGPMs; i++ {
		gb.AddLink(fmt.Sprintf("link%d->%d", i, i+1), i, i+1, p.LinkGBs)
		gb.AddLink(fmt.Sprintf("link%d->%d", i+1, i), i+1, i, p.LinkGBs)
	}
	return nil
}

// buildRing closes the chain with a wraparound link. Two GPMs already share
// their only neighbour pair, so the ring degenerates to the chain rather
// than doubling the links.
func buildRing(gb *GraphBuilder, p Params) error {
	if err := buildChain(gb, p); err != nil {
		return err
	}
	if n := p.NumGPMs; n > 2 {
		gb.AddLink(fmt.Sprintf("link%d->%d", n-1, 0), n-1, 0, p.LinkGBs)
		gb.AddLink(fmt.Sprintf("link%d->%d", 0, n-1), 0, n-1, p.LinkGBs)
	}
	return nil
}

// mesh2DCols resolves the grid width: MeshCols, or the squarest fit.
func mesh2DCols(p Params) int {
	if p.MeshCols > 0 {
		return p.MeshCols
	}
	return int(math.Ceil(math.Sqrt(float64(p.NumGPMs))))
}

// buildMesh2D lays the GPMs row-major on a cols-wide grid and links 4-way
// neighbours in both directions. A partial last row and a width exceeding
// the GPM count both degrade to the connected sub-grid (a single row is
// the chain).
func buildMesh2D(gb *GraphBuilder, p Params) error {
	cols := mesh2DCols(p)
	pair := func(a, b int) {
		gb.AddLink(fmt.Sprintf("link%d->%d", a, b), a, b, p.LinkGBs)
		gb.AddLink(fmt.Sprintf("link%d->%d", b, a), b, a, p.LinkGBs)
	}
	for g := 0; g < p.NumGPMs; g++ {
		if (g+1)%cols != 0 && g+1 < p.NumGPMs { // right neighbour
			pair(g, g+1)
		}
		if g+cols < p.NumGPMs { // down neighbour
			pair(g, g+cols)
		}
	}
	return nil
}

// buildSwitch is the crossbar: every GPM has a dedicated ingress port into
// the switch and egress port out of it at the full link bandwidth, and all
// traffic funnels through one shared backplane link whose budget defaults to
// half-bisection (NumGPMs/2 x LinkGBs).
func buildSwitch(gb *GraphBuilder, p Params) error {
	backplane := p.BackplaneGBs
	if backplane == 0 {
		backplane = p.LinkGBs * float64(p.NumGPMs) / 2
	}
	in := gb.AddNode("xbar-in")
	out := gb.AddNode("xbar-out")
	for g := 0; g < p.NumGPMs; g++ {
		gb.AddLink(fmt.Sprintf("up%d", g), g, in, p.LinkGBs)
	}
	gb.AddLink("backplane", in, out, backplane)
	for g := 0; g < p.NumGPMs; g++ {
		gb.AddLink(fmt.Sprintf("down%d", g), out, g, p.LinkGBs)
	}
	return nil
}

// hierPackageSize resolves hierarchical's package size (default 2).
func hierPackageSize(p Params) int {
	if p.PackageSize > 0 {
		return p.PackageSize
	}
	return 2
}

// buildHierarchical is the MCM-GPU-style two-level fabric: GPMs inside a
// package enjoy dedicated full-mesh links at the full bandwidth; each
// package owns a router, and routers are joined pairwise by slower trunk
// links (default half the intra-package bandwidth) that all off-package
// flows of the two packages share.
func buildHierarchical(gb *GraphBuilder, p Params) error {
	size := hierPackageSize(p)
	trunk := p.TrunkGBs
	if trunk == 0 {
		trunk = p.LinkGBs / 2
	}
	nPkg := (p.NumGPMs + size - 1) / size
	if nPkg < 2 {
		// One package: plain full mesh, no trunk level exists.
		return buildFullMesh(gb, p)
	}
	pkg := func(g int) int { return g / size }
	// Intra-package dedicated links.
	for i := 0; i < p.NumGPMs; i++ {
		for j := 0; j < p.NumGPMs; j++ {
			if i != j && pkg(i) == pkg(j) {
				gb.AddLink(fmt.Sprintf("link%d->%d", i, j), i, j, p.LinkGBs)
			}
		}
	}
	// Per-package routers and GPM ports onto them.
	routers := make([]int, nPkg)
	for k := 0; k < nPkg; k++ {
		routers[k] = gb.AddNode(fmt.Sprintf("rtr%d", k))
	}
	for g := 0; g < p.NumGPMs; g++ {
		gb.AddLink(fmt.Sprintf("up%d", g), g, routers[pkg(g)], p.LinkGBs)
		gb.AddLink(fmt.Sprintf("down%d", g), routers[pkg(g)], g, p.LinkGBs)
	}
	// Pairwise trunks between routers.
	for a := 0; a < nPkg; a++ {
		for b := 0; b < nPkg; b++ {
			if a != b {
				gb.AddLink(fmt.Sprintf("trunk%d->%d", a, b), routers[a], routers[b], trunk)
			}
		}
	}
	return nil
}
