package experiments

// Property test for the temporal-coherence cache: the incremental path
// (TSL grouping reuse) is pure memoization, so a frame stream with
// arbitrary structural churn must produce Metrics byte-identical to a
// from-scratch run that recomputes everything every frame. The golden
// fingerprints pin the steady case (a fixed draw list); this test attacks
// the invalidation logic with the mutations a real engine performs between
// frames — draw-list growth and shrinkage, LOD swaps, texture rebinds —
// interleaved with quiet camera-jitter frames that keep the cache on its
// hit path.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/render"
	"oovr/internal/scene"
	"oovr/internal/workload"
)

// noCachePlanners mirrors allPlanners with every planner-owned incremental
// cache disabled: the OO middleware regroups each frame from scratch.
func noCachePlanners() []driver.Planner {
	mw := core.NewMiddleware()
	mw.NoCache = true
	oo := core.NewOOApp()
	oo.Middleware = mw
	vr := core.NewOOVR()
	vr.Middleware = mw
	return []driver.Planner{
		render.Baseline{},
		render.DefaultAFR(),
		render.TileV{},
		render.TileH{},
		render.ObjectSFR{},
		oo,
		vr,
	}
}

// churnScene derives a frame sequence with randomized structural churn
// from the DM3-640 object set. Mutations are confined to shapes a real
// frame stream produces — and to ones that keep the scene well-formed:
// objects leave and re-enter only at the tail of the draw list (so
// DependsOn positions and the Index==position invariant survive), meshes
// only shrink (so the declared vertex-capacity envelope stays valid), and
// texture rebinds copy-on-write their binding list so earlier frames are
// never retroactively edited.
func churnScene(t *testing.T, seed int64) *scene.Scene {
	t.Helper()
	c, ok := workload.CaseByName("DM3-640")
	if !ok {
		t.Fatal("missing benchmark case DM3-640")
	}
	base := c.Spec.Generate(c.Width, c.Height, 1, 1)
	rng := rand.New(rand.NewSource(seed))

	sc := &scene.Scene{
		Name:     fmt.Sprintf("CHURN-%d", seed),
		Width:    base.Width,
		Height:   base.Height,
		Textures: base.Textures,
		Capacity: base.Capacity,
	}
	full := base.Frames[0].Objects // the declared envelope
	master := append([]scene.Object(nil), full...)

	const frames = 10
	for fi := 0; fi < frames; fi++ {
		if fi > 0 {
			switch rng.Intn(5) {
			case 0: // draws leave the scene (tail removal)
				if drop := 1 + rng.Intn(8); len(master) > drop+4 {
					master = master[:len(master)-drop]
				}
			case 1: // draws re-enter from the envelope
				for len(master) < len(full) {
					master = append(master, full[len(master)])
					if rng.Intn(3) != 0 {
						break
					}
				}
			case 2: // LOD drop: a mesh shrinks within its vertex capacity
				o := &master[rng.Intn(len(master))]
				if o.Triangles > 16 {
					o.Triangles /= 2
					o.Vertices = o.Triangles * 3 * 2 / 3
					if o.Vertices < 3 {
						o.Vertices = 3
					}
				}
			case 3: // texture rebind (copy-on-write: earlier frames alias the old list)
				o := &master[rng.Intn(len(master))]
				if len(o.Textures) > 1 && rng.Intn(2) == 0 {
					o.Textures = o.Textures[:len(o.Textures)-1]
				} else {
					tid := scene.TextureID(rng.Intn(len(sc.Textures)))
					bound := false
					for _, b := range o.Textures {
						if b == tid {
							bound = true
							break
						}
					}
					if !bound {
						o.Textures = append(o.Textures[:len(o.Textures):len(o.Textures)], tid)
					}
				}
			case 4: // quiet frame: camera jitter only, the cache-hit path
			}
		}
		f := scene.Frame{Index: fi, Objects: append([]scene.Object(nil), master...)}
		scale := 1 + 0.04*rng.NormFloat64()
		if scale < 0.9 {
			scale = 0.9
		}
		for oi := range f.Objects {
			o := &f.Objects[oi]
			o.FragsPerView *= scale * (1 + 0.02*rng.NormFloat64())
			if o.FragsPerView < 0 {
				o.FragsPerView = 0
			}
		}
		sc.Frames = append(sc.Frames, f)
	}
	return sc
}

// TestChurnCacheEquivalence renders a churning frame stream with every
// planner four ways — grouping cache on and off, batch and streaming — and
// requires all four Metrics to match byte-for-byte (DeepEqual covers the
// per-link data the fingerprint predates).
func TestChurnCacheEquivalence(t *testing.T) {
	runBatch := func(sc *scene.Scene, p driver.Planner) multigpu.Metrics {
		return driver.Run(multigpu.New(multigpu.DefaultOptions(), sc), p)
	}
	runStream := func(sc *scene.Scene, p driver.Planner) multigpu.Metrics {
		sys := multigpu.New(multigpu.DefaultOptions(), sc)
		ses := driver.Open(sys, p)
		for fi := range sc.Frames {
			ses.SubmitFrame(&sc.Frames[fi])
		}
		return ses.Close()
	}

	for _, seed := range []int64{3, 17} {
		sc := churnScene(t, seed)
		cached := allPlanners()
		uncached := noCachePlanners()
		for i := range cached {
			name := cached[i].Name()
			want := runBatch(sc, cached[i])
			wantFP := metricsFingerprint(want)
			variants := []struct {
				label string
				got   multigpu.Metrics
			}{
				{"cached/stream", runStream(sc, cached[i])},
				{"nocache/batch", runBatch(sc, uncached[i])},
				{"nocache/stream", runStream(sc, uncached[i])},
			}
			for _, v := range variants {
				if got := metricsFingerprint(v.got); got != wantFP {
					t.Errorf("seed %d %s %s: fingerprint %s, cached/batch %s (incremental caches changed the result)",
						seed, name, v.label, got, wantFP)
				}
				if !reflect.DeepEqual(v.got, want) {
					t.Errorf("seed %d %s %s: metrics diverged from cached/batch", seed, name, v.label)
				}
			}
		}
	}
}
