// Package core implements the paper's contribution: the Object-Oriented VR
// rendering framework (OO-VR), a software/hardware co-design with three
// parts (Section 5, Figure 11):
//
//   - the object-oriented programming model (OO_Application +
//     OO_Middleware): each object's left and right views are merged into one
//     multi-view rendering task, and objects are grouped into batches by
//     their texture sharing level (TSL, Equation 1);
//   - the object-aware runtime batch distribution engine: a hardware
//     micro-controller that predicts each batch's rendering time with a
//     linear memorization model (Equation 3), assigns batches to the GPM
//     predicted to become available first, and pre-allocates batch data via
//     per-GPM PA units;
//   - the distributed hardware composition unit (DHC): the framebuffer is
//     split into per-GPM screen partitions so every GPM's ROPs compose
//     concurrently.
package core

import (
	"slices"

	"oovr/internal/scene"
)

// DefaultTSLThreshold is the sharing level above which the middleware merges
// an object into the current batch (Section 5.1: "If TSL is greater than
// 0.5, we group them together").
const DefaultTSLThreshold = 0.5

// DefaultBatchTriangleCap is the batch size limit "to prevent load imbalance
// from an inflated batch" (Section 5.1: 4096 triangles).
const DefaultBatchTriangleCap = 4096

// Batch is a group of objects that share textures and render as one
// scheduling unit on a single GPM.
type Batch struct {
	// ID is the batch's issue order within its frame.
	ID int
	// Objects are the grouped objects, in programmer-defined order.
	Objects []*scene.Object
	// Triangles is the batch's total triangle count (the #triangle_x input
	// of the rendering-time predictor).
	Triangles int
	// Textures is the union of the members' texture sets.
	Textures []scene.TextureID
}

// FragsBothViews returns the batch's fragment volume across both eyes.
func (b *Batch) FragsBothViews() float64 {
	var f float64
	for _, o := range b.Objects {
		f += 2 * o.FragsPerView
	}
	return f
}

// TSL computes the texture sharing level of Equation (1) between a root
// texture set and a candidate object:
//
//	TSL = Σ_t (Pr(t) · Pn(t)) / Σ_t Pr(t)
//
// where t ranges over the textures shared by both, and Pr(t)/Pn(t) are the
// byte percentages of t within the root's and the candidate's total texture
// footprints. A TSL of 1 means the candidate samples exactly the root's
// textures; 0 means no overlap.
func TSL(sc *scene.Scene, root []scene.TextureID, candidate []scene.TextureID) float64 {
	if len(root) == 0 || len(candidate) == 0 {
		return 0
	}
	// Σ_t Pr(t) over the (deduplicated) root set is 1 by construction, so
	// the denominator of Equation (1) needs no explicit renormalization.
	// Summation follows the root slice order — not a map — so TSL is
	// bit-stable across runs (it feeds threshold comparisons, and the
	// simulator guarantees deterministic schedules). Texture sets are tiny,
	// so duplicates are skipped by prefix scan instead of a hash set.
	// GroupFrame evaluates this same sum, in this order, on stamp arrays
	// (groupScratch.tslAgainstRoot).
	var rootTotal, candTotal int64
	for i, t := range root {
		if slices.Contains(root[:i], t) {
			continue
		}
		rootTotal += sc.Texture(t).Bytes
	}
	for _, t := range candidate {
		candTotal += sc.Texture(t).Bytes
	}
	if rootTotal == 0 || candTotal == 0 {
		return 0
	}
	var num float64
	for i, t := range root {
		if slices.Contains(root[:i], t) || !slices.Contains(candidate, t) {
			continue
		}
		pr := float64(sc.Texture(t).Bytes) / float64(rootTotal)
		pn := float64(sc.Texture(t).Bytes) / float64(candTotal)
		num += pr * pn
	}
	return num
}

// Middleware is the OO_Middleware of Section 5.1: it consumes a frame's
// object queue and emits batches.
type Middleware struct {
	// TSLThreshold is the grouping threshold (default 0.5).
	TSLThreshold float64
	// TriangleCap is the batch triangle limit (default 4096).
	TriangleCap int
	// NoCache disables the Grouper's frame-to-frame reuse so every frame
	// regroups from scratch. The churn property tests use it to pin the
	// incremental path against the reference computation; it changes cost,
	// never results.
	NoCache bool
}

// NewMiddleware returns a middleware with the paper's constants.
func NewMiddleware() Middleware {
	return Middleware{TSLThreshold: DefaultTSLThreshold, TriangleCap: DefaultBatchTriangleCap}
}

// GroupFrame batches a frame's objects following the Figure 12 flow:
// repeatedly pick the queue head as root, scan the queue for independent
// objects whose TSL against the accumulated batch exceeds the threshold,
// and stop growing when the triangle cap is reached. Objects that depend on
// a batch member are merged into that batch directly (raising its cap), so
// the programmer-defined order is preserved.
// Only candidates sharing a texture with the batch are scored (see
// groupFrame), so a frame costs O(draws + textures) plus time proportional
// to its texture-sharing pairs, and each score runs on stamp arrays in
// O(|candidate|) with TSL's operands and accumulation order.
func (m Middleware) GroupFrame(sc *scene.Scene, f *scene.Frame) []Batch {
	var s groupScratch
	return m.groupFrame(&s, sc, f, nil)
}
