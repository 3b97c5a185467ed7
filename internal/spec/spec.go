package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/registry"
	"oovr/internal/render"
	"oovr/internal/scene"
	"oovr/internal/topo"
	"oovr/internal/workload"
)

// CurrentVersion is the RunSpec schema version this package encodes and
// accepts. Bump it on any incompatible field change; decoders reject
// versions they do not speak, so cached results never alias across schemas.
// Version 1 no longer accepts "stream" or "timeline" fields, without a
// bump: a spec without them keeps its canonical bytes and address, and a
// spec with them fails the strict decoder instead of aliasing.
const CurrentVersion = 1

// WorkloadRef names the workload of a run. The common form references a
// registered benchmark case ("HL2-1280", "Sponza") by Name; Width/Height
// override the case's per-eye resolution when non-zero. A fully
// self-contained spec instead carries the generator recipe Inline (the
// experiment harness submits sweeps this way), in which case Name is only a
// label.
type WorkloadRef struct {
	Name   string         `json:"name,omitempty"`
	Width  int            `json:"width,omitempty"`
	Height int            `json:"height,omitempty"`
	Inline *workload.Spec `json:"inline,omitempty"`
}

// SchedulerRef names the scheduling policy and its factory params.
type SchedulerRef struct {
	Name string `json:"name"`
	// Params configure the named policy (see the factory's param struct);
	// empty means the calibrated defaults. Canonical specs carry params
	// with sorted keys.
	Params json.RawMessage `json:"params,omitempty"`
}

// RunSpec is one simulation run, fully described as data: it can be stored,
// submitted over HTTP, cached by content, and resolved to a ready-to-run
// simulation anywhere the named components are registered.
type RunSpec struct {
	// Version is the schema version (CurrentVersion; 0 normalizes to it).
	Version int `json:"version"`
	// Workload selects the benchmark case.
	Workload WorkloadRef `json:"workload"`
	// Scheduler selects the scheduling policy.
	Scheduler SchedulerRef `json:"scheduler"`
	// Hardware overrides the simulator options (hardware config plus
	// calibration knobs); nil means the Table 2 defaults. Normalized specs
	// always carry the fully explicit options.
	Hardware *multigpu.Options `json:"hardware,omitempty"`
	// Placement is the registered initial shared-data layout ("" =
	// "striped", the allocation default).
	Placement string `json:"placement,omitempty"`
	// Frames is the number of frames rendered (0 normalizes to 4).
	Frames int `json:"frames,omitempty"`
	// Seed drives the deterministic workload synthesis (0 normalizes to 1).
	Seed int64 `json:"seed,omitempty"`
}

// Decode strictly reads one RunSpec from r: unknown fields and trailing
// data are errors, so a typoed knob or a half-edited file never silently
// runs a default simulation.
func Decode(r io.Reader) (RunSpec, error) {
	var s RunSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return RunSpec{}, fmt.Errorf("spec: decode: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return RunSpec{}, fmt.Errorf("spec: decode: trailing data after the spec document")
	}
	return s, nil
}

// Normalized returns the spec with every defaulted field made explicit:
// version and run knobs filled in, hardware expanded to the full option
// set, the workload resolution resolved, and scheduler params re-encoded
// with sorted keys. Two specs describing the same run normalize to the same
// value, which is what Canonical hashes.
func (s RunSpec) Normalized() (RunSpec, error) {
	n := s
	if n.Version == 0 {
		n.Version = CurrentVersion
	}
	if n.Frames == 0 {
		n.Frames = 4
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	if n.Placement == "" {
		n.Placement = "striped"
	}
	// Aliases and case variants name the same components, so they must
	// canonicalize to the same bytes — otherwise identical runs would get
	// distinct content addresses and defeat the result cache.
	n.Scheduler.Name = planners.Canonical(n.Scheduler.Name)
	n.Placement = layouts.Canonical(n.Placement)
	n.Hardware = canonicalHardware(n.Hardware)
	if n.Workload.Inline != nil {
		sp := *n.Workload.Inline
		n.Workload.Inline = &sp
	}
	if n.Workload.Width == 0 || n.Workload.Height == 0 {
		var res [][2]int
		if n.Workload.Inline != nil {
			res = n.Workload.Inline.Resolutions
		} else {
			c, ok := WorkloadByName(n.Workload.Name)
			if !ok {
				return RunSpec{}, workloads.Unknown(n.Workload.Name)
			}
			res = [][2]int{{c.Width, c.Height}}
		}
		if len(res) == 0 {
			return RunSpec{}, fmt.Errorf("spec: workload %q has no resolvable resolution", n.Workload.Name)
		}
		// Each dimension defaults independently, so a partial override
		// (width only) is preserved rather than silently discarded.
		if n.Workload.Width == 0 {
			n.Workload.Width = res[0][0]
		}
		if n.Workload.Height == 0 {
			n.Workload.Height = res[0][1]
		}
	}
	if len(n.Scheduler.Params) > 0 {
		canon, err := canonicalJSON(n.Scheduler.Params)
		if err != nil {
			return RunSpec{}, fmt.Errorf("spec: scheduler params: %w", err)
		}
		// Semantically-empty params mean "the defaults", exactly like an
		// absent field — fold them out so the spellings share one
		// canonical form and one content address.
		if s := string(canon); s == "null" || s == "{}" {
			canon = nil
		}
		n.Scheduler.Params = canon
	}
	return n, nil
}

// canonicalHardware expands a hardware block to the fully explicit option
// set without aliasing the caller's struct, and canonicalizes its topology
// the way component names canonicalize: aliases fold to the primary
// spelling, parameters the named topology never reads (and explicitly
// spelled defaults) fold to zero, and the default full mesh folds to the
// empty spelling — a pre-topology spec, an explicit "fullmesh" spec, and a
// spec dragging an inert knob along must all share one canonical form and
// one content address. RunSpec and ServiceSpec hardware normalize through
// the same path.
func canonicalHardware(h *multigpu.Options) *multigpu.Options {
	var opt multigpu.Options
	if h == nil {
		opt = multigpu.DefaultOptions()
	} else {
		opt = *h // never alias the caller's options
	}
	tp := topo.CanonicalParams(opt.Config.TopologyParams())
	if tp.Name == topo.Default {
		tp.Name = ""
	}
	opt.Config.Topology = tp.Name
	opt.Config.TopologyMeshCols = tp.MeshCols
	opt.Config.TopologyPackageSize = tp.PackageSize
	opt.Config.TopologyTrunkGBs = tp.TrunkGBs
	opt.Config.TopologyBackplaneGBs = tp.BackplaneGBs
	return &opt
}

// canonicalJSON re-encodes an arbitrary JSON document with sorted object
// keys at every level (Go's encoding/json sorts map keys), so semantically
// equal params byte-compare equal.
func canonicalJSON(raw json.RawMessage) (json.RawMessage, error) {
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// Run is a resolved, ready-to-execute spec.
type Run struct {
	// Spec is the normalized spec the run was resolved from.
	Spec RunSpec
	// Case is the resolved workload at the spec's resolution.
	Case workload.Case
	// Planner is the constructed scheduling policy.
	Planner driver.Planner
	// Options are the explicit simulator options.
	Options multigpu.Options
	// Phases is the executed run's per-phase cycle breakdown, populated by
	// Execute. Purely observational — it rides alongside Metrics and never
	// enters the canonical Result encoding, so content addresses and golden
	// fingerprints are untouched.
	Phases multigpu.PhaseCycles
	// Timeline, when set before Execute, records the run's simulated-time
	// execution trace. Observational, like Phases: it never enters the
	// canonical Result encoding.
	Timeline *obs.Timeline

	layout LayoutFunc
}

// Resolve normalizes and validates the spec and resolves its components
// against the registries.
func (s RunSpec) Resolve() (*Run, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if n.Version != CurrentVersion {
		return nil, fmt.Errorf("spec: unsupported version %d (this build speaks %d)", n.Version, CurrentVersion)
	}
	if err := registry.Check("spec", registry.In("frames", float64(n.Frames), 1, multigpu.MaxFrames)); err != nil {
		return nil, err
	}
	c, err := n.ResolveWorkload()
	if err != nil {
		return nil, err
	}
	p, err := NewPlanner(n.Scheduler.Name, n.Scheduler.Params)
	if err != nil {
		return nil, err
	}
	layout, ok := layouts.Lookup(n.Placement)
	if !ok {
		return nil, layouts.Unknown(n.Placement)
	}
	if err := ValidateOptions(*n.Hardware); err != nil {
		return nil, fmt.Errorf("spec: hardware: %w", err)
	}
	if err := rootInside(n.Scheduler.Name, p, n.Hardware.Config.NumGPMs); err != nil {
		return nil, err
	}
	return &Run{Spec: n, Case: c, Planner: p, Options: *n.Hardware, layout: layout}, nil
}

// rootInside checks that a built-in master-node policy names a GPM of an
// nGPM machine; planner factories never see the hardware, so the
// cross-check lives here.
func rootInside(scheduler string, p driver.Planner, nGPM int) error {
	var root mem.GPMID = -1
	switch pl := p.(type) {
	case render.ObjectSFR:
		root = pl.Root
	case core.OOApp:
		root = pl.Root
	}
	if int(root) >= nGPM {
		return fmt.Errorf("spec: scheduler %q Root %d outside the %d-GPM system", scheduler, root, nGPM)
	}
	return nil
}

const maxPixels = 1 << 14 // each per-eye dimension; Table 3's largest is 1600

// ResolveWorkload produces the evaluation case at the spec's resolution
// without touching the other components — callers that only need the
// workload (the harness's -spec template) stay usable with specs naming
// schedulers this binary never registered. An inline recipe the generator
// cannot build (workload.Spec.Validate) and a resolution outside
// [1, maxPixels] are errors here, before any stream is opened.
func (n RunSpec) ResolveWorkload() (workload.Case, error) {
	w := n.Workload
	var c workload.Case
	if w.Inline != nil {
		if err := w.Inline.Validate(); err != nil {
			return workload.Case{}, fmt.Errorf("spec: inline workload %q: %w", w.Name, err)
		}
		c = workload.Case{Name: w.Name, Spec: *w.Inline}
		if c.Name == "" {
			c.Name = w.Inline.Abbr
		}
	} else {
		var ok bool
		if c, ok = WorkloadByName(w.Name); !ok {
			return workload.Case{}, workloads.Unknown(w.Name)
		}
	}
	if err := registry.Check("spec",
		registry.In("width", float64(w.Width), 1, maxPixels),
		registry.In("height", float64(w.Height), 1, maxPixels)); err != nil {
		return workload.Case{}, err
	}
	c.Width, c.Height = w.Width, w.Height
	return c, nil
}

// ValidateOptions checks hardware options as Resolve does: their domains,
// then the topology they name, built, so an unknown or inconsistent
// interconnect is an input error (with the registered alternatives) rather
// than a panic in multigpu.New. The harness's -spec template uses a
// spec's machine this way without resolving its scheduler.
func ValidateOptions(opt multigpu.Options) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	_, err := topo.Build(opt.Config.TopologyParams())
	return err
}

// Execute runs the resolved simulation and collects its metrics — byte
// identical to the equivalent imperative construction (the spec tests pin
// this for every registered scheduler). Frames stream through one reused
// buffer into a driver.Session, so a run holds one frame at a time
// whatever its frame count.
func (r *Run) Execute() multigpu.Metrics {
	c := r.Case
	st := c.Spec.Stream(c.Width, c.Height, r.Spec.Frames, r.Spec.Seed)
	sys := multigpu.New(r.Options, st.Header())
	sys.AttachTimeline(r.Timeline)
	r.layout(sys)
	ses := driver.Open(sys, r.Planner)
	sys.ReserveFrames(r.Spec.Frames)
	var f scene.Frame
	for st.NextInto(&f) {
		ses.SubmitFrame(&f)
	}
	m := ses.Close()
	r.Phases = sys.Phases()
	return m
}

// Run resolves and executes the spec in one call.
func (s RunSpec) Run() (multigpu.Metrics, error) {
	r, err := s.Resolve()
	if err != nil {
		return multigpu.Metrics{}, err
	}
	return r.Execute(), nil
}

// Canonical returns the spec's canonical encoding: the normalized spec,
// compact, with fixed field order and sorted param keys. Equal runs
// canonicalize to equal bytes; the result cache keys on it.
func (s RunSpec) Canonical() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the spec's content address: the hex SHA-256 of the
// canonical encoding.
func (s RunSpec) Hash() (string, error) { return contentAddress(s.Canonical()) }

// contentAddress hashes a job's canonical encoding (or passes on the error
// that kept it from having one).
func contentAddress(canon []byte, err error) (string, error) {
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// EncodeArray renders specs as a JSON array with one canonical spec per
// line — the -dump-spec job-list format of both CLIs, accepted verbatim by
// oovrd's /batch endpoint (RunSpecs) and the fleet's /fleet/submit (any
// jobs).
func EncodeArray[J Job](specs []J) ([]byte, error) {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, s := range specs {
		c, err := s.Canonical()
		if err != nil {
			return nil, err
		}
		buf.WriteString("  ")
		buf.Write(c)
		if i < len(specs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return buf.Bytes(), nil
}
