// Package workload synthesizes the rendering workloads of the paper's
// evaluation. The original study profiles rendering traces of five
// commercial games (Table 3); those traces are proprietary, so this package
// generates deterministic synthetic equivalents calibrated to the published
// trace statistics: draw-call counts, resolutions, per-object complexity
// spread (which drives the Figure 10 load imbalance) and clustered texture
// sharing (which the OO-VR middleware's TSL grouping exploits).
//
// DESIGN.md §1 documents this substitution.
package workload

import (
	"fmt"
	"math/rand"

	"oovr/internal/registry"
	"oovr/internal/scene"
)

// Spec is the generator recipe for one benchmark.
type Spec struct {
	// Abbr is the paper's abbreviation (Table 3).
	Abbr string
	// Name is the full game title.
	Name string
	// Library is the rendering API the original game used.
	Library string
	// Draws is the draw-command count per frame (Table 3).
	Draws int
	// Resolutions are the per-eye resolutions the paper renders (Table 3).
	Resolutions [][2]int

	// MeanTriangles is the mean triangle count per draw.
	MeanTriangles float64
	// TriSigma is the lognormal sigma of per-draw triangle counts; larger
	// values produce the few-huge-objects profile that causes object-level
	// SFR load imbalance (Figure 10).
	TriSigma float64
	// Overdraw is the average number of fragments shaded per covered pixel.
	Overdraw float64
	// TextureCount is the distinct-texture pool size per frame.
	TextureCount int
	// MeanTextureKB is the mean *shared* texture size.
	MeanTextureKB float64
	// PrivateTexKB is the mean size of each object's private texture (its
	// own diffuse/material map). Private data is what the object-level SFR
	// converts from remote to local accesses when it places "the rendering
	// object along with its required data per GPM".
	PrivateTexKB float64
	// TexSigma is the lognormal sigma of texture sizes.
	TexSigma float64
	// Clusters is the number of material clusters; objects in the same
	// cluster share that cluster's textures (the "stone" pillars of
	// Figure 12).
	Clusters int
	// TexturesPerObject is the mean number of textures an object samples.
	TexturesPerObject float64
	// CommonTextureFrac is the probability an object also samples one of
	// the global common textures (lightmaps), which raises cross-cluster
	// sharing.
	CommonTextureFrac float64
	// DependencyFrac is the fraction of objects that depend on the previous
	// object (programmer-defined blending order, Section 5.1).
	DependencyFrac float64
}

// Validate reports, by name, the first field outside its domain. Counts
// stay within what the prefix cache holds (2^16 objects plus textures); a
// count it divides by is at least 1; Overdraw, which bounds are sized by
// dividing by, is at least 0.01; fractions lie in [0,1]. A zero mean is
// valid (its log is -Inf, which clamps every draw to the minimum size).
//
// The generator draws triangle counts and texture sizes as mean·F with
// the lognormal factor F = exp(z·σ − σ²/2), z a rand.NormFloat64 draw, and
// converts them to int and int64. The bounds on the means and spreads keep
// every such product in range whatever z is drawn:
//
//   - |z| < 16.2: NormFloat64's ziggurat returns at most its tail start
//     rn ≈ 3.443 plus x = −ln(U)/rn, and a nonzero Float64 U is at least
//     2^−63, so |z| ≤ 3.443 + 63·ln 2/3.443 ≈ 16.13. (Only two successive
//     Float64 draws of exactly 0 make z infinite.)
//   - σ ≤ 1.6: F grows with σ below 16.2, so F ≤ e^(16.2·1.6−1.28) ≈
//     5.0e10.
//   - MeanTriangles ≤ 1e6: Triangles ≤ 5.0e16, the Vertices product 6·t ≤
//     3.0e17 and VertexBytes 64·t ≤ 3.2e18, below MaxInt64 ≈ 9.22e18.
//   - MeanTextureKB, PrivateTexKB ≤ 1e5: a texture's bytes ≤ 1e5·1024·F ≤
//     5.1e18.
//
// The bounds are per object and per texture; sums over a recipe's draws
// and textures are not bounded here. Every built-in recipe is valid; an
// inline one is checked before it reaches Stream.
func (sp Spec) Validate() error {
	return registry.Check("workload",
		registry.In("Draws", float64(sp.Draws), 1, 1<<16),
		registry.In("TextureCount", float64(sp.TextureCount), 0, 1<<16),
		registry.In("Clusters", float64(sp.Clusters), 1, 1<<16),
		registry.In("MeanTriangles", sp.MeanTriangles, 0, 1e6),
		registry.In("TriSigma", sp.TriSigma, 0, 1.6),
		registry.In("Overdraw", sp.Overdraw, 0.01, 100),
		registry.In("MeanTextureKB", sp.MeanTextureKB, 0, 1e5),
		registry.In("PrivateTexKB", sp.PrivateTexKB, 0, 1e5),
		registry.In("TexSigma", sp.TexSigma, 0, 1.6),
		registry.In("TexturesPerObject", sp.TexturesPerObject, 0, 16),
		registry.In("CommonTextureFrac", sp.CommonTextureFrac, 0, 1),
		registry.In("DependencyFrac", sp.DependencyFrac, 0, 1))
}

// Benchmarks returns the five Table 3 specs in the paper's order.
func Benchmarks() []Spec {
	return []Spec{
		{
			Abbr: "DM3", Name: "Doom 3", Library: "OpenGL", Draws: 191,
			Resolutions:   [][2]int{{1600, 1200}, {1280, 1024}, {640, 480}},
			MeanTriangles: 950, TriSigma: 1.6, Overdraw: 2.6,
			TextureCount: 60, MeanTextureKB: 640, PrivateTexKB: 512, TexSigma: 0.9,
			Clusters: 12, TexturesPerObject: 2.0, CommonTextureFrac: 0.35,
			DependencyFrac: 0.06,
		},
		{
			Abbr: "HL2", Name: "Half-Life 2", Library: "DirectX", Draws: 328,
			Resolutions:   [][2]int{{1600, 1200}, {1280, 1024}, {640, 480}},
			MeanTriangles: 620, TriSigma: 1.4, Overdraw: 2.4,
			TextureCount: 90, MeanTextureKB: 512, PrivateTexKB: 448, TexSigma: 0.9,
			Clusters: 18, TexturesPerObject: 1.8, CommonTextureFrac: 0.3,
			DependencyFrac: 0.05,
		},
		{
			Abbr: "NFS", Name: "Need For Speed", Library: "DirectX", Draws: 1267,
			Resolutions:   [][2]int{{1280, 1024}},
			MeanTriangles: 280, TriSigma: 1.2, Overdraw: 2.2,
			TextureCount: 180, MeanTextureKB: 384, PrivateTexKB: 320, TexSigma: 0.8,
			Clusters: 30, TexturesPerObject: 1.6, CommonTextureFrac: 0.25,
			DependencyFrac: 0.04,
		},
		{
			Abbr: "UT3", Name: "Unreal Tournament 3", Library: "DirectX", Draws: 876,
			Resolutions:   [][2]int{{1280, 1024}},
			MeanTriangles: 380, TriSigma: 1.3, Overdraw: 2.5,
			TextureCount: 140, MeanTextureKB: 512, PrivateTexKB: 384, TexSigma: 0.85,
			Clusters: 24, TexturesPerObject: 1.8, CommonTextureFrac: 0.3,
			DependencyFrac: 0.05,
		},
		{
			Abbr: "WE", Name: "Wolfenstein", Library: "DirectX", Draws: 1697,
			Resolutions:   [][2]int{{640, 480}},
			MeanTriangles: 160, TriSigma: 1.1, Overdraw: 2.2,
			TextureCount: 200, MeanTextureKB: 256, PrivateTexKB: 192, TexSigma: 0.8,
			Clusters: 34, TexturesPerObject: 1.5, CommonTextureFrac: 0.25,
			DependencyFrac: 0.04,
		},
	}
}

// ByAbbr returns the spec with the given abbreviation.
func ByAbbr(abbr string) (Spec, bool) {
	for _, s := range Benchmarks() {
		if s.Abbr == abbr {
			return s, true
		}
	}
	return Spec{}, false
}

// Case is one (benchmark, resolution) evaluation point; the paper's figures
// plot nine of them.
type Case struct {
	// Name is the figure label, e.g. "DM3-1280" or "NFS".
	Name string
	// Spec is the generating benchmark.
	Spec Spec
	// Width, Height are the per-eye resolution.
	Width, Height int
}

// Cases returns the nine benchmark/resolution pairs in the order the
// paper's figures list them: DM3-640..1600, HL2-640..1600, NFS, UT3, WE.
func Cases() []Case {
	var out []Case
	for _, sp := range Benchmarks() {
		if len(sp.Resolutions) == 1 {
			r := sp.Resolutions[0]
			out = append(out, Case{Name: sp.Abbr, Spec: sp, Width: r[0], Height: r[1]})
			continue
		}
		// Multi-resolution benchmarks are labelled Abbr-<width> and listed
		// ascending, matching "DM3-640, DM3-1280, DM3-1600".
		for i := len(sp.Resolutions) - 1; i >= 0; i-- {
			r := sp.Resolutions[i]
			out = append(out, Case{
				Name: fmt.Sprintf("%s-%d", sp.Abbr, r[0]),
				Spec: sp, Width: r[0], Height: r[1],
			})
		}
	}
	return out
}

// CaseByName returns the evaluation case with the given figure label.
func CaseByName(name string) (Case, bool) {
	for _, c := range Cases() {
		if c.Name == name {
			return c, true
		}
	}
	return Case{}, false
}

// Generate synthesizes a scene of the given frame count at the given
// per-eye resolution. The same (spec, resolution, frames, seed) always
// yields the identical scene. Generate is the batch form of Stream: it
// drains the frame stream to completion, so batch and streamed runs see
// identical frames. It holds every frame at once; a run that renders each
// frame once should stream instead (spec.Run.Execute does).
func (sp Spec) Generate(width, height, frames int, seed int64) *scene.Scene {
	if frames <= 0 {
		panic("workload: frames must be positive")
	}
	st := sp.Stream(width, height, frames, seed)
	s := st.Header()
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		s.Frames = append(s.Frames, *f)
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// clusterOf picks the material cluster for draw i: runs of consecutive
// draws share a cluster, mimicking state-sorted submission.
func clusterOf(rng *rand.Rand, sp Spec, i int) int {
	// A new cluster is started roughly every (Draws/Clusters) draws; using
	// the rng keeps run lengths irregular but deterministic.
	runLen := sp.Draws/sp.Clusters + 1
	base := (i / runLen) % sp.Clusters
	// 20% of draws stray to a random cluster (shared props reappear).
	if rng.Float64() < 0.2 {
		return rng.Intn(sp.Clusters)
	}
	return base
}
