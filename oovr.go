// Package oovr is a NUMA-friendly object-oriented VR rendering framework
// and multi-GPU simulator — a from-scratch Go reproduction of
//
//	Xie, Fu, Chen, Song: "OO-VR: NUMA Friendly Object-Oriented VR Rendering
//	Framework For Future NUMA-Based Multi-GPU Systems", ISCA 2019.
//
// The package exposes the project's public API as a façade over the
// internal packages:
//
//   - hardware configuration (Table 2 defaults, bandwidth/GPM-count sweeps),
//   - synthetic VR workloads calibrated to the paper's Table 3 benchmarks,
//   - the transaction-level NUMA multi-GPU simulator,
//   - the parallel rendering schedulers the paper characterizes (baseline
//     single-programming-model, AFR, tile-level SFR, object-level SFR),
//   - the OO-VR framework itself (TSL batching middleware, runtime batch
//     distribution engine with the Equation-3 predictor, distributed
//     hardware composition), and
//   - the experiment harness that regenerates every figure and table of
//     the paper's evaluation, and
//   - the declarative run layer: serializable RunSpecs resolved through
//     named component registries, served by the cmd/oovrd job server.
//
// # Quick start
//
//	spec, _ := oovr.BenchmarkByAbbr("HL2")
//	scene := spec.Generate(1280, 1024, 4, 1)
//	sys := oovr.NewSystem(oovr.DefaultOptions(), scene)
//	metrics := oovr.Run(sys, oovr.NewOOVR())
//	fmt.Println(metrics.TotalCycles, metrics.InterGPMBytes)
//
// See examples/ for runnable programs and DESIGN.md for the model.
package oovr

import (
	"encoding/json"
	"io"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/experiments"
	"oovr/internal/gpu"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/pipeline"
	"oovr/internal/render"
	"oovr/internal/scene"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/stats"
	"oovr/internal/topo"
	"oovr/internal/workload"
)

// Hardware configuration.
type (
	// HardwareConfig describes the multi-GPU machine (Table 2 defaults).
	HardwareConfig = gpu.Config
	// CacheModel is the texture cache filter model.
	CacheModel = gpu.CacheModel
	// Options bundle the hardware config with the simulator's calibration
	// knobs.
	Options = multigpu.Options
)

// Table2Config returns the paper's baseline hardware configuration.
func Table2Config() HardwareConfig { return gpu.Table2Config() }

// DefaultOptions returns the calibrated simulator options used by all
// experiments.
func DefaultOptions() Options { return multigpu.DefaultOptions() }

// Workloads.
type (
	// BenchmarkSpec is a synthetic workload recipe (Table 3 calibrated).
	BenchmarkSpec = workload.Spec
	// BenchmarkCase is one (benchmark, resolution) evaluation point.
	BenchmarkCase = workload.Case
	// Scene is a generated workload: textures, frames, objects.
	Scene = scene.Scene
	// Frame is one rendered frame: an ordered draw list.
	Frame = scene.Frame
	// Object is one draw command.
	Object = scene.Object
	// Texture is one sampled image.
	Texture = scene.Texture
	// SceneCapacity is the allocation envelope a streamed scene declares
	// in place of materialized frames.
	SceneCapacity = scene.Capacity
	// FrameStream generates a benchmark's frames one at a time
	// (BenchmarkSpec.Stream); bind its Header with NewSystem and feed the
	// frames through a Session.
	FrameStream = workload.Stream
)

// Benchmarks returns the five Table 3 workload recipes.
func Benchmarks() []BenchmarkSpec { return workload.Benchmarks() }

// BenchmarkByAbbr looks a recipe up by its paper abbreviation (DM3, HL2,
// NFS, UT3, WE).
func BenchmarkByAbbr(abbr string) (BenchmarkSpec, bool) { return workload.ByAbbr(abbr) }

// BenchmarkCases returns the paper's nine benchmark/resolution points.
func BenchmarkCases() []BenchmarkCase { return workload.Cases() }

// DecodeScene reads a versioned JSON trace (see cmd/oovrtrace -export) so
// profiled traces from real applications can drive the simulator.
func DecodeScene(r io.Reader) (*Scene, error) { return scene.Decode(r) }

// The simulator.
type (
	// System is a hardware configuration bound to a scene, ready to render.
	System = multigpu.System
	// Metrics summarize a completed run: cycles, frame latencies, per-GPM
	// busy time and the inter-GPM traffic breakdown.
	Metrics = multigpu.Metrics
	// Task is one schedulable unit on a GPM (exposed for custom
	// schedulers).
	Task = multigpu.Task
	// TaskPart is one object share inside a Task.
	TaskPart = multigpu.TaskPart
	// GPMID identifies a GPU module.
	GPMID = mem.GPMID
)

// NewSystem binds options to a scene.
func NewSystem(opt Options, sc *Scene) *System { return multigpu.New(opt, sc) }

// RenderMode selects how a task covers the two eye views.
type RenderMode = pipeline.Mode

// Stereo coverage modes for TaskPart.Mode.
const (
	// ModeSingleView renders one eye only.
	ModeSingleView = pipeline.ModeSingleView
	// ModeBothSMP renders both eyes in one pass via the SMP engine.
	ModeBothSMP = pipeline.ModeBothSMP
	// ModeBothSequential renders both eyes back to back without SMP.
	ModeBothSequential = pipeline.ModeBothSequential
)

// ColorTarget selects where a task's color output lands.
type ColorTarget = multigpu.ColorTarget

// Color output paths for Task.Color.
const (
	// ColorStriped writes to the NUMA-striped shared framebuffer.
	ColorStriped = multigpu.ColorStriped
	// ColorLocalStage stages pixels locally for a later composition pass.
	ColorLocalStage = multigpu.ColorLocalStage
	// ColorPartitionOwned writes directly to the GPM's framebuffer
	// partition.
	ColorPartitionOwned = multigpu.ColorPartitionOwned
)

// The frame-driver execution core: scheduling policy (Planner) is separate
// from task execution (the frame loop behind Open/Run). A policy emits
// per-frame Plans; the driver owns frame barriers or multi-frame
// pipelining, composition, latency accounting and metrics collection, and
// accepts frames either in batch (Run) or incrementally (Session).
type (
	// Planner is the pure-policy scheduling contract: Begin binds a run,
	// then per-frame Plans describe task submissions, composition and
	// framebuffer placement (see examples/custom_scheduler).
	Planner = driver.Planner
	// FramePlanner emits one run's frame plans.
	FramePlanner = driver.FramePlanner
	// Plan is one frame's execution recipe.
	Plan = driver.Plan
	// Submission is one task bound for a GPM.
	Submission = driver.Submission
	// Profile declares a run's execution envelope (frames-in-flight depth).
	Profile = driver.Profile
	// PlanFunc adapts a function to FramePlanner.
	PlanFunc = driver.PlanFunc
	// FrameLoop executes per-frame Plans on a bound system.
	FrameLoop = driver.FrameLoop
	// Session is a streaming rendering session: SubmitFrame accepts frames
	// incrementally, Close returns the run's Metrics.
	Session = driver.Session
	// FBPlacement selects where a plan homes the framebuffer.
	FBPlacement = driver.FBPlacement
	// ComposeOp selects the composition pass that closes a frame.
	ComposeOp = driver.ComposeOp
)

// Framebuffer placements for Plan.Framebuffer.
const (
	// FBStriped leaves the target NUMA-striped across all GPMs.
	FBStriped = driver.FBStriped
	// FBPartitioned splits the target into per-GPM partitions.
	FBPartitioned = driver.FBPartitioned
	// FBRoot homes the whole target on the plan's Root GPM.
	FBRoot = driver.FBRoot
)

// Composition ops for Plan.Compose.
const (
	// ComposeNone ends the frame without a composition pass.
	ComposeNone = driver.ComposeNone
	// ComposeRoot assembles the frame on the Root GPM's ROPs.
	ComposeRoot = driver.ComposeRoot
	// ComposeDistributed runs OO-VR's distributed hardware composition.
	ComposeDistributed = driver.ComposeDistributed
	// ComposeDiscard drops staged pixels (private per-GPM frames).
	ComposeDiscard = driver.ComposeDiscard
)

// Open starts a streaming session for planner p on sys: submit frames with
// Session.SubmitFrame as they are produced and collect Metrics with Close.
func Open(sys *System, p Planner) *Session { return driver.Open(sys, p) }

// Run renders every materialized frame of the bound scene through the
// frame driver — the batch entry point.
func Run(sys *System, p Planner) Metrics { return driver.Run(sys, p) }

// Schedulers.
type (
	// Baseline is the single-programming-model scheme of Section 2.3.
	Baseline = render.Baseline
	// AFR is alternate frame rendering (Section 4.1).
	AFR = render.AFR
	// TileV is vertical-strip tile-level SFR (Section 4.2).
	TileV = render.TileV
	// TileH is horizontal-strip tile-level SFR (Section 4.2).
	TileH = render.TileH
	// ObjectSFR is conventional object-level SFR (Section 4.3).
	ObjectSFR = render.ObjectSFR
	// OOApp is the software-only OO programming model design point.
	OOApp = core.OOApp
	// OOVR is the full software/hardware co-designed framework.
	OOVR = core.OOVR
	// EngineStats reports distribution-engine queue occupancy (OOVR.Stats).
	EngineStats = core.EngineStats
	// Middleware is the TSL batching middleware (Section 5.1).
	Middleware = core.Middleware
	// Batch is a TSL-grouped set of objects.
	Batch = core.Batch
	// Predictor is the Equation (3) rendering-time model.
	Predictor = core.Predictor
)

// DefaultAFR returns the calibrated AFR configuration.
func DefaultAFR() AFR { return render.DefaultAFR() }

// NewOOApp returns the OO_APP design point with the paper's constants.
func NewOOApp() OOApp { return core.NewOOApp() }

// NewOOVR returns the full OO-VR configuration.
func NewOOVR() OOVR { return core.NewOOVR() }

// NewMiddleware returns a TSL middleware with the paper's constants
// (threshold 0.5, 4096-triangle cap).
func NewMiddleware() Middleware { return core.NewMiddleware() }

// TSL computes the Equation (1) texture sharing level between two texture
// sets within a scene.
func TSL(sc *Scene, root, candidate []scene.TextureID) float64 {
	return core.TSL(sc, root, candidate)
}

// The declarative run layer: a serializable RunSpec names a workload, a
// scheduler, hardware options and run knobs, and the component registries
// resolve the names. Specs are what cmd/oovrsim's flags translate to, what
// the experiment harness submits per figure case, and what the oovrd job
// server accepts over HTTP — resubmitting an identical spec is answered
// from a cache keyed on the canonical encoding. DESIGN.md §7 has the model.
type (
	// RunSpec is one simulation run, fully described as data.
	RunSpec = spec.RunSpec
	// WorkloadRef names (or inlines) a RunSpec's workload.
	WorkloadRef = spec.WorkloadRef
	// SchedulerRef names a RunSpec's scheduling policy plus its params.
	SchedulerRef = spec.SchedulerRef
	// RunResult is the versioned outcome of one RunSpec (canonical JSON).
	RunResult = spec.Result
	// PlannerFactory builds a registered policy from its JSON params.
	PlannerFactory = spec.PlannerFactory
	// LayoutFunc applies a registered initial shared-data placement.
	LayoutFunc = spec.LayoutFunc
)

// RegisterPlanner adds a named scheduling policy (plus aliases) to the
// registry, making it addressable from RunSpecs, cmd/oovrsim -scheme and
// the oovrd job server. The seven evaluated schemes are pre-registered as
// baseline, afr, tilev, tileh, object, ooapp and oovr, beside the Section 3
// single-GPU validation vehicle, single.
func RegisterPlanner(name string, f PlannerFactory, aliases ...string) {
	spec.RegisterPlanner(name, f, aliases...)
}

// RegisterWorkload adds a named benchmark case to the registry. The
// paper's nine cases and the VRWorks validation scenes are pre-registered.
func RegisterWorkload(name string, c BenchmarkCase) { spec.RegisterWorkload(name, c) }

// RegisterLayout adds a named initial shared-data placement (pre-registered:
// striped, partitioned, gpm0).
func RegisterLayout(name string, f LayoutFunc) { spec.RegisterLayout(name, f) }

// RegisterTopology adds a named interconnect topology, referenced from
// HardwareConfig.Topology (pre-registered: fullmesh, ring, chain, mesh2d,
// switch, hierarchical — DESIGN.md §8).
func RegisterTopology(name string, build topo.Builder, aliases ...string) {
	topo.Register(name, build, aliases...)
}

// RegisteredPlanners, RegisteredWorkloads, RegisteredLayouts and
// RegisteredTopologies list the sorted registered names — the same listings
// oovrd serves.
func RegisteredPlanners() []string   { return spec.PlannerNames() }
func RegisteredWorkloads() []string  { return spec.WorkloadNames() }
func RegisteredLayouts() []string    { return spec.LayoutNames() }
func RegisteredTopologies() []string { return topo.Names() }

// NewPlanner resolves a registered policy by name; unknown names error
// with the sorted registered list.
func NewPlanner(name string, params json.RawMessage) (Planner, error) {
	return spec.NewPlanner(name, params)
}

// DecodeRunSpec strictly reads a RunSpec (unknown fields are an error).
func DecodeRunSpec(r io.Reader) (RunSpec, error) { return spec.Decode(r) }

// The serving simulator: a ServiceSpec describes a cluster of simulated
// multi-GPU nodes, an open-loop Poisson session arrival process, and an
// admission + routing policy; RunService simulates it in virtual time and
// reports per-cell frame-latency percentiles against the 90 Hz deadline,
// rejected/evicted sessions and per-node utilization. Sweeps (NodeSweep x
// LambdaSweep) split into standalone single-cell specs, which is what lets
// cmd/oovrsim -service, oovrd's /service endpoint and a fleet-sharded run
// produce byte-identical canonical Reports. DESIGN.md §11 has the model.
type (
	// ServiceSpec is one serving simulation, fully described as data.
	ServiceSpec = spec.ServiceSpec
	// ServiceNodeGroup is a homogeneous slice of the simulated cluster.
	ServiceNodeGroup = spec.NodeGroup
	// ServiceSessionMix is one entry of the arriving-session workload mix.
	ServiceSessionMix = spec.SessionMix
	// RouterRef names a ServiceSpec's session→node routing policy.
	RouterRef = spec.RouterRef
	// ServiceReport is the canonical outcome of a ServiceSpec.
	ServiceReport = service.Report
	// ServiceCellReport is one sweep cell's counters and percentiles.
	ServiceCellReport = service.CellReport
	// Router decides which node admits an arriving session (or rejects it).
	Router = service.Router
	// RouterFactory builds a registered Router from its JSON params.
	RouterFactory = service.RouterFactory
	// NodeView is the per-node load snapshot a Router routes on.
	NodeView = service.NodeView
	// MotionTrace is a recorded head-motion pan sequence; serving sessions
	// replay one (ServiceSpec.Motion) instead of the synthetic random walk.
	MotionTrace = workload.Trace
)

// RunService simulates a ServiceSpec to completion; parallel bounds the
// worker goroutines evaluating independent sweep cells (0 or 1 runs
// serially — the Report is byte-identical for any value).
func RunService(sp ServiceSpec, parallel int) (ServiceReport, error) {
	return service.Run(sp, service.RunOptions{Parallel: parallel})
}

// DecodeServiceSpec strictly reads a ServiceSpec (unknown fields error).
func DecodeServiceSpec(r io.Reader) (ServiceSpec, error) { return spec.DecodeService(r) }

// RegisterRouter adds a named session→node routing policy, addressable from
// ServiceSpec.Router (pre-registered: least-loaded, round-robin,
// topology-aware).
func RegisterRouter(name string, f RouterFactory) { service.RegisterRouter(name, f) }

// RegisteredRouters lists the sorted registered router names.
func RegisteredRouters() []string { return service.RouterNames() }

// RegisterMotionTrace adds a named head-motion trace, addressable from
// ServiceSpec.Motion (pre-registered: "hmd-pan", a recorded seated
// look-around gesture at 90 Hz).
func RegisterMotionTrace(t MotionTrace) { workload.RegisterTrace(t) }

// RegisteredMotionTraces lists the sorted registered trace names.
func RegisteredMotionTraces() []string { return workload.TraceNames() }

// ReplayMotion adapts a trace to the FrameStream.Motion hook: the stream's
// head pose then follows the recording instead of a synthetic random walk,
// byte-identically on every replay.
func ReplayMotion(t MotionTrace) func(frame int) (dx, dy float64) {
	return t.Replay()
}

// Experiments.
type (
	// ExperimentOptions configure a harness run.
	ExperimentOptions = experiments.Options
	// Figure is a reproduced paper figure (labels + series).
	Figure = stats.Figure
)

// Experiment functions, one per paper table/figure. See EXPERIMENTS.md for
// a full archived run and the paper-vs-measured comparison. Set
// ExperimentOptions.Parallel to spread a run's independent simulation
// cases across worker goroutines; any value produces output identical to
// a serial run (DESIGN.md §5).
var (
	SMPValidation       = experiments.E0SMPValidation
	Figure4             = experiments.F4Bandwidth
	Figure7             = experiments.F7AFR
	Figure8             = experiments.F8SFRPerformance
	Figure9             = experiments.F9SFRTraffic
	Figure10            = experiments.F10Imbalance
	Figure15            = experiments.F15Speedup
	Figure16            = experiments.F16Traffic
	Figure17            = experiments.F17BandwidthScaling
	Figure18            = experiments.F18GPMScaling
	FigureTopology      = experiments.FTopology
	FigureServiceCap    = experiments.FSCapacity
	OverheadAnalysis    = experiments.O1Overhead
	ResidualTraffic     = experiments.TrafficBreakdown
	AblationNoBatching  = experiments.A1NoBatching
	AblationNoPredictor = experiments.A2NoPredictor
	AblationNoDHC       = experiments.A3NoDHC
	AblationTSLSweep    = experiments.A4TSLSweep
)

// EngineOverheadBits returns the Section 5.4 storage accounting for the
// runtime distribution engine (960 bits for the 4-GPM baseline).
func EngineOverheadBits(numGPMs int) int { return core.EngineOverhead(numGPMs).TotalBits() }
