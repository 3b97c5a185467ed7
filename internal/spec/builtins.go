package spec

import (
	"encoding/json"
	"fmt"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/pipeline"
	"oovr/internal/registry"
	"oovr/internal/render"
	"oovr/internal/workload"
)

// The built-in components register at package init: the seven evaluated
// scheduling schemes (under the names cmd/oovrsim has always accepted, with
// their historical spellings as aliases) plus the Section 3 single-GPU
// validation vehicle, the paper's nine benchmark cases
// plus the two VRWorks validation scenes, and the initial shared-data
// placement layouts.

// afrParams mirrors render.AFR's knobs; unset fields keep the calibrated
// defaults.
type afrParams struct {
	DriverCyclesPerDraw  float64
	DriverCyclesPerKFrag float64
}

// objectParams configures the object-level SFR master node.
type objectParams struct {
	Root int
}

// OOAppParams configures the software-only OO design point registered as
// "ooapp": the TSL middleware plus its master composition node.
type OOAppParams struct {
	TSLThreshold float64
	TriangleCap  int
	Root         int
}

// OOVRParams configures the full framework registered as "oovr": the TSL
// middleware plus the ablation switches. There is no Root — composition is
// distributed — so a submitted Root is rejected, not silently ignored.
// The experiment harness marshals its ablation variants through this
// struct, keeping the two sides of the wire in one declaration.
type OOVRParams struct {
	TSLThreshold          float64
	TriangleCap           int
	DisablePredictor      bool
	DisableDHC            bool
	DisableStragglerSplit bool
}

const maxTriangleCap = 1e6 // the TSL batch cap; the ablation's largest is 16,384

func init() {
	RegisterPlanner("baseline", func(params json.RawMessage) (driver.Planner, error) {
		if err := DecodeParams(params, &struct{}{}); err != nil {
			return nil, err
		}
		return render.Baseline{}, nil
	})
	RegisterPlanner("afr", func(params json.RawMessage) (driver.Planner, error) {
		a := render.DefaultAFR()
		p := afrParams{DriverCyclesPerDraw: a.DriverCyclesPerDraw, DriverCyclesPerKFrag: a.DriverCyclesPerKFrag}
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		if err := registry.Check("afr",
			registry.In("DriverCyclesPerDraw", p.DriverCyclesPerDraw, 0, 1e6),
			registry.In("DriverCyclesPerKFrag", p.DriverCyclesPerKFrag, 0, 1e6)); err != nil {
			return nil, err
		}
		return render.AFR(p), nil
	}, "frame", "frame-level")
	RegisterPlanner("tilev", func(params json.RawMessage) (driver.Planner, error) {
		if err := DecodeParams(params, &struct{}{}); err != nil {
			return nil, err
		}
		return render.TileV{}, nil
	}, "tile-v")
	RegisterPlanner("tileh", func(params json.RawMessage) (driver.Planner, error) {
		if err := DecodeParams(params, &struct{}{}); err != nil {
			return nil, err
		}
		return render.TileH{}, nil
	}, "tile-h")
	RegisterPlanner("object", func(params json.RawMessage) (driver.Planner, error) {
		var p objectParams
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		if err := registry.Check("object", registry.In("Root", float64(p.Root), 0, registry.MaxGPMs-1)); err != nil {
			return nil, err
		}
		return render.ObjectSFR{Root: mem.GPMID(p.Root)}, nil
	}, "object-level")
	RegisterPlanner("ooapp", func(params json.RawMessage) (driver.Planner, error) {
		m := core.NewMiddleware()
		p := OOAppParams{TSLThreshold: m.TSLThreshold, TriangleCap: m.TriangleCap}
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		if err := registry.Check("ooapp",
			registry.In("TSLThreshold", p.TSLThreshold, 0, 1),
			registry.In("TriangleCap", float64(p.TriangleCap), 1, maxTriangleCap),
			registry.In("Root", float64(p.Root), 0, registry.MaxGPMs-1)); err != nil {
			return nil, err
		}
		a := core.NewOOApp()
		a.Middleware = core.Middleware{TSLThreshold: p.TSLThreshold, TriangleCap: p.TriangleCap}
		a.Root = mem.GPMID(p.Root)
		return a, nil
	}, "oo_app")
	RegisterPlanner("oovr", func(params json.RawMessage) (driver.Planner, error) {
		m := core.NewMiddleware()
		p := OOVRParams{TSLThreshold: m.TSLThreshold, TriangleCap: m.TriangleCap}
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		if err := registry.Check("oovr",
			registry.In("TSLThreshold", p.TSLThreshold, 0, 1),
			registry.In("TriangleCap", float64(p.TriangleCap), 1, maxTriangleCap)); err != nil {
			return nil, err
		}
		v := core.NewOOVR()
		v.Middleware = core.Middleware{TSLThreshold: p.TSLThreshold, TriangleCap: p.TriangleCap}
		v.DisablePredictor = p.DisablePredictor
		v.DisableDHC = p.DisableDHC
		v.DisableStragglerSplit = p.DisableStragglerSplit
		return v, nil
	}, "oo-vr")
	RegisterPlanner("single", func(params json.RawMessage) (driver.Planner, error) {
		p := struct{ Mode string }{Mode: "smp"}
		if err := DecodeParams(params, &p); err != nil {
			return nil, err
		}
		switch p.Mode {
		case "smp":
			return render.SingleGPU{Mode: pipeline.ModeBothSMP}, nil
		case "sequential":
			return render.SingleGPU{Mode: pipeline.ModeBothSequential}, nil
		default:
			return nil, fmt.Errorf("single: unknown Mode %q (smp, sequential)", p.Mode)
		}
	})

	for _, c := range workload.Cases() {
		RegisterWorkload(c.Name, c)
	}
	for _, name := range []string{"Sponza", "SanMiguel"} {
		sp := workload.ValidationSpec(name)
		r := sp.Resolutions[0]
		RegisterWorkload(name, workload.Case{Name: name, Spec: sp, Width: r[0], Height: r[1]})
	}

	// The allocation default: textures and vertex buffers stay NUMA-striped
	// (Section 2.2's pre-allocated GPU memory); locality-aware schemes
	// re-place data themselves, so the layout is a no-op.
	RegisterLayout("striped", func(*multigpu.System) {})
	// N contiguous shares of every shared segment, for partition-affine
	// workloads: each GPM homes one slice of every texture and buffer.
	RegisterLayout("partitioned", func(sys *multigpu.System) { sys.PlaceSharedPartitioned() })
	// Everything homed on GPM0 — the pathological single-home placement the
	// NUMA study contrasts against.
	RegisterLayout("gpm0", func(sys *multigpu.System) { sys.PlaceSharedAt(0) })
}
