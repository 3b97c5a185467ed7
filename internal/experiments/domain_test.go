package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"oovr/internal/multigpu"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

// probe sets one outside number of a job and validates the job.
type probe struct {
	field string
	// integer fields take only whole values; a JSON-carried field takes
	// only finite ones.
	integer, json bool
	// zeroDefault marks a field whose 0 selects a default, so the value
	// just below a lower bound of 1 is -1, not 0.
	zeroDefault bool
	check       func(v float64) error
}

var boundRE = regexp.MustCompile(`out of \[([^,\]]+),([^\]]+)\]$`)

// TestEveryOutsideNumberHasOneDomain pins the domain rule from both sides:
// every job the figures, the spec matrix and the FS cells submit lies
// inside every domain, and every domain row rejects NaN, ±Inf, the
// smallest denormal (where the row is positive) and the values one step
// outside either bound, with an error naming the field. Each row's bounds
// are read from its own error, so the table does not restate them.
func TestEveryOutsideNumberHasOneDomain(t *testing.T) {
	for _, rs := range append(Jobs(Options{}, Experiments()), SpecMatrix(Options{}, nil)...) {
		if _, err := rs.Resolve(); err != nil {
			t.Errorf("figure job %s/%s: %v", rs.Scheduler.Name, rs.Workload.Name, err)
		}
	}
	for _, sched := range fsServiceSchedulers() {
		cells, err := service.CellSpecs(fsSpec(sched, 1))
		if err != nil {
			t.Fatalf("FS %s: %v", sched, err)
		}
		for _, c := range cells {
			if _, err := c.Resolve(); err != nil {
				t.Errorf("FS %s cell: %v", sched, err)
			}
		}
	}

	hw := func(field string, set func(*multigpu.Options, float64)) probe {
		return probe{field: field, check: func(v float64) error {
			o := multigpu.DefaultOptions()
			set(&o, v)
			return o.Validate()
		}}
	}
	hwInt := func(field string, set func(*multigpu.Options, int)) probe {
		p := hw(field, func(o *multigpu.Options, v float64) { set(o, int(v)) })
		p.integer = true
		return p
	}
	recipe := func(field string, integer bool, set func(*workload.Spec, float64)) probe {
		return probe{field: field, integer: integer, check: func(v float64) error {
			sp := workload.Benchmarks()[0]
			set(&sp, v)
			return sp.Validate()
		}}
	}
	run := func(field string, set func(*spec.RunSpec, int)) probe {
		return probe{field: field, integer: true, zeroDefault: true, check: func(v float64) error {
			rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Scheduler: spec.SchedulerRef{Name: "oovr"}, Frames: 1}
			set(&rs, int(v))
			_, err := rs.Resolve()
			return err
		}}
	}
	param := func(sched, field string, integer bool) probe {
		return probe{field: field, integer: integer, json: true, check: func(v float64) error {
			num := strconv.FormatFloat(v, 'g', -1, 64)
			if integer {
				num = strconv.FormatInt(int64(v), 10)
			}
			rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Frames: 1,
				Scheduler: spec.SchedulerRef{Name: sched, Params: json.RawMessage(`{"` + field + `":` + num + `}`)}}
			_, err := rs.Resolve()
			return err
		}}
	}
	svc := func(field string, integer bool, set func(*spec.ServiceSpec, float64)) probe {
		return probe{field: field, integer: integer, check: func(v float64) error {
			s := spec.ServiceSpec{ServiceVersion: spec.ServiceVersion, Nodes: []spec.NodeGroup{{Count: 1}},
				Sessions: []spec.SessionMix{{Workload: "DM3-640", Weight: 1}}, LambdaSweep: []float64{16},
				MeanFrames: 30, RefreshHz: 90, DeadlineMs: 0.2, HorizonMs: 300, MaxSessionsPerNode: 64}
			set(&s, v)
			_, err := s.Resolve()
			return err
		}}
	}
	maxSessions := svc("max_sessions_per_node", true, func(s *spec.ServiceSpec, v float64) { s.MaxSessionsPerNode = int(v) })
	maxSessions.zeroDefault = true

	probes := []probe{
		hw("ClockGHz", func(o *multigpu.Options, v float64) { o.Config.ClockGHz = v }),
		hwInt("NumGPMs", func(o *multigpu.Options, v int) { o.Config.NumGPMs = v }),
		hwInt("SMsPerGPM", func(o *multigpu.Options, v int) { o.Config.SMsPerGPM = v }),
		hwInt("ShaderCoresPerSM", func(o *multigpu.Options, v int) { o.Config.ShaderCoresPerSM = v }),
		hwInt("L1KBPerSM", func(o *multigpu.Options, v int) { o.Config.L1KBPerSM = v }),
		hwInt("TextureUnitsPerSM", func(o *multigpu.Options, v int) { o.Config.TextureUnitsPerSM = v }),
		hwInt("AnisotropicFiltering", func(o *multigpu.Options, v int) { o.Config.AnisotropicFiltering = v }),
		hwInt("RasterTileSize", func(o *multigpu.Options, v int) { o.Config.RasterTileSize = v }),
		hwInt("ROPsPerGPM", func(o *multigpu.Options, v int) { o.Config.ROPsPerGPM = v }),
		hwInt("PixelsPerROPPerCycle", func(o *multigpu.Options, v int) { o.Config.PixelsPerROPPerCycle = v }),
		hwInt("L2MBTotal", func(o *multigpu.Options, v int) { o.Config.L2MBTotal = v }),
		hwInt("L2Ways", func(o *multigpu.Options, v int) { o.Config.L2Ways = v }),
		hw("InterGPMLinkGBs", func(o *multigpu.Options, v float64) { o.Config.InterGPMLinkGBs = v }),
		hw("LocalDRAMGBs", func(o *multigpu.Options, v float64) { o.Config.LocalDRAMGBs = v }),
		hwInt("TopologyMeshCols", func(o *multigpu.Options, v int) { o.Config.TopologyMeshCols = v }),
		hwInt("TopologyPackageSize", func(o *multigpu.Options, v int) { o.Config.TopologyPackageSize = v }),
		hw("TopologyTrunkGBs", func(o *multigpu.Options, v float64) { o.Config.TopologyTrunkGBs = v }),
		hw("TopologyBackplaneGBs", func(o *multigpu.Options, v float64) { o.Config.TopologyBackplaneGBs = v }),
		hw("VertexShaderCycles", func(o *multigpu.Options, v float64) { o.Config.VertexShaderCycles = v }),
		hw("FragmentShaderCycles", func(o *multigpu.Options, v float64) { o.Config.FragmentShaderCycles = v }),
		hw("SMPCyclesPerTriangle", func(o *multigpu.Options, v float64) { o.Config.SMPCyclesPerTriangle = v }),
		hw("TrianglesPerCyclePerRaster", func(o *multigpu.Options, v float64) { o.Config.TrianglesPerCyclePerRaster = v }),
		hw("RasterFragsPerCycle", func(o *multigpu.Options, v float64) { o.Config.RasterFragsPerCycle = v }),
		hw("ReuseMissFactor", func(o *multigpu.Options, v float64) { o.Cache.ReuseMissFactor = v }),
		hw("SampleBytesPerFragment", func(o *multigpu.Options, v float64) { o.Cache.SampleBytesPerFragment = v }),
		hw("OverlapFactor", func(o *multigpu.Options, v float64) { o.OverlapFactor = v }),
		hw("IssueCyclesPerDraw", func(o *multigpu.Options, v float64) { o.IssueCyclesPerDraw = v }),
		hw("ShipOverfetch", func(o *multigpu.Options, v float64) { o.ShipOverfetch = v }),
		hwInt("PageSize", func(o *multigpu.Options, v int) { o.PageSize = int64(v) }),
		hw("RemoteCacheHitRate", func(o *multigpu.Options, v float64) { o.RemoteCacheHitRate = v }),

		recipe("Draws", true, func(sp *workload.Spec, v float64) { sp.Draws = int(v) }),
		recipe("TextureCount", true, func(sp *workload.Spec, v float64) { sp.TextureCount = int(v) }),
		recipe("Clusters", true, func(sp *workload.Spec, v float64) { sp.Clusters = int(v) }),
		recipe("MeanTriangles", false, func(sp *workload.Spec, v float64) { sp.MeanTriangles = v }),
		recipe("TriSigma", false, func(sp *workload.Spec, v float64) { sp.TriSigma = v }),
		recipe("Overdraw", false, func(sp *workload.Spec, v float64) { sp.Overdraw = v }),
		recipe("MeanTextureKB", false, func(sp *workload.Spec, v float64) { sp.MeanTextureKB = v }),
		recipe("PrivateTexKB", false, func(sp *workload.Spec, v float64) { sp.PrivateTexKB = v }),
		recipe("TexSigma", false, func(sp *workload.Spec, v float64) { sp.TexSigma = v }),
		recipe("TexturesPerObject", false, func(sp *workload.Spec, v float64) { sp.TexturesPerObject = v }),
		recipe("CommonTextureFrac", false, func(sp *workload.Spec, v float64) { sp.CommonTextureFrac = v }),
		recipe("DependencyFrac", false, func(sp *workload.Spec, v float64) { sp.DependencyFrac = v }),

		run("frames", func(rs *spec.RunSpec, v int) { rs.Frames = v }),
		run("width", func(rs *spec.RunSpec, v int) { rs.Workload.Width = v }),
		run("height", func(rs *spec.RunSpec, v int) { rs.Workload.Height = v }),
		param("afr", "DriverCyclesPerDraw", false),
		param("afr", "DriverCyclesPerKFrag", false),
		param("object", "Root", true),
		param("ooapp", "TSLThreshold", false),
		param("ooapp", "TriangleCap", true),
		param("ooapp", "Root", true),
		param("oovr", "TSLThreshold", false),
		param("oovr", "TriangleCap", true),

		svc("nodes.count", true, func(s *spec.ServiceSpec, v float64) { s.Nodes[0].Count = int(v) }),
		svc("node_sweep", true, func(s *spec.ServiceSpec, v float64) { s.NodeSweep = []int{int(v)} }),
		svc("sessions.weight", false, func(s *spec.ServiceSpec, v float64) { s.Sessions[0].Weight = v }),
		svc("lambda_sweep", false, func(s *spec.ServiceSpec, v float64) { s.LambdaSweep = []float64{v} }),
		svc("mean_frames", false, func(s *spec.ServiceSpec, v float64) { s.MeanFrames = v }),
		svc("refresh_hz", false, func(s *spec.ServiceSpec, v float64) { s.RefreshHz = v }),
		svc("deadline_ms", false, func(s *spec.ServiceSpec, v float64) { s.DeadlineMs = v }),
		svc("horizon_ms", false, func(s *spec.ServiceSpec, v float64) { s.HorizonMs = v }),
		maxSessions,
	}
	for _, p := range probes {
		// A value far above any bound reports the row's range.
		err := p.check(1e15)
		m := boundRE.FindStringSubmatch(fmt.Sprint(err))
		if err == nil || m == nil || !strings.Contains(err.Error(), p.field+" ") {
			t.Errorf("%s = 1e15: %v, want an out-of-range error naming the field", p.field, err)
			continue
		}
		lo, err1 := strconv.ParseFloat(m[1], 64)
		hi, err2 := strconv.ParseFloat(m[2], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: unreadable bounds in %v", p.field, err)
		}
		var bad []float64
		if p.integer {
			below := lo - 1
			if p.zeroDefault && below == 0 {
				below = -1
			}
			bad = []float64{below, hi + 1}
		} else {
			bad = []float64{math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))}
			if lo > 0 {
				bad = append(bad, 5e-324)
			}
			if !p.json { // JSON carries no NaN or infinity
				bad = append(bad, math.NaN(), math.Inf(1), math.Inf(-1))
			}
		}
		for _, v := range bad {
			if err := p.check(v); err == nil || !strings.Contains(err.Error(), p.field+" ") {
				t.Errorf("%s = %v: %v, want an error naming the field", p.field, v, err)
			}
		}
	}
	// The product row: a cell draws lambda × horizon_ms / 1000 arrivals
	// up front.
	s := fsSpec("oovr", 1)
	s.NodeSweep, s.LambdaSweep, s.HorizonMs = nil, []float64{1e6}, 1e7
	if _, err := s.Resolve(); err == nil || !strings.Contains(err.Error(), "lambda × horizon_ms ") {
		t.Errorf("10^10 expected arrivals: %v, want an error naming lambda × horizon_ms", err)
	}
}
