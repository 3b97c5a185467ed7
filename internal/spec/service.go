package spec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"oovr/internal/multigpu"
	"oovr/internal/registry"
	"oovr/internal/workload"
)

// ServiceVersion is the ServiceSpec schema version this package encodes and
// accepts. The field doubles as the document discriminator: a RunSpec never
// carries service_version, so the two spec kinds are distinguishable under
// strict decoding (DecodeJobBytes probes it).
//
// The version stayed 1 when the telemetry field was removed: a spec
// without it keeps byte-identical canonical bytes, content address and
// cell seeds, and a spec with it fails strict decoding rather than
// aliasing onto a different document.
const ServiceVersion = 1

// NodeGroup describes a homogeneous slice of the simulated cluster: Count
// nodes, each an independent multi-GPU part with the given hardware options
// (nil = the Table 2 defaults).
type NodeGroup struct {
	Count    int               `json:"count"`
	Hardware *multigpu.Options `json:"hardware,omitempty"`
}

// SessionMix is one entry of the session workload distribution: arriving
// sessions draw a registered workload case by Weight (0 normalizes to 1).
type SessionMix struct {
	Workload string  `json:"workload"`
	Weight   float64 `json:"weight,omitempty"`
}

// RouterRef names the session→node routing policy and its factory params.
// Routers resolve against internal/service's registry ("" = "least-loaded");
// the spec layer only canonicalizes the spelling so equal configurations
// share one content address.
type RouterRef struct {
	Name   string          `json:"name,omitempty"`
	Params json.RawMessage `json:"params,omitempty"`
}

// ServiceSpec is one open-loop serving simulation, fully described as data:
// a cluster of simulated nodes, a Poisson session arrival process drawing
// per-session workload and duration from named distributions, and an
// admission + routing policy. Like RunSpec it normalizes, canonicalizes and
// hashes to a content address; a spec with NodeSweep or a multi-point
// LambdaSweep is a *sweep* whose cells (CellSpecs in internal/service) are
// themselves standalone single-cell ServiceSpecs — which is what lets the
// fleet shard a capacity sweep per cell byte-identically.
type ServiceSpec struct {
	// ServiceVersion is the schema version (ServiceVersion; 0 normalizes to
	// it) and the discriminator that tells a ServiceSpec document apart
	// from a RunSpec.
	ServiceVersion int `json:"service_version"`
	// Nodes is the cluster: one or more homogeneous groups (empty
	// normalizes to one group of 4 default nodes).
	Nodes []NodeGroup `json:"nodes,omitempty"`
	// NodeSweep, when set, sweeps the cluster size: one cell per entry,
	// each a cluster of N nodes drawn from the single node group (the FS
	// capacity figure's x-axis). Requires exactly one group.
	NodeSweep []int `json:"node_sweep,omitempty"`
	// Scheduler is the intra-node scheduling policy every session runs
	// under ("" = "oovr").
	Scheduler SchedulerRef `json:"scheduler"`
	// Placement is the registered initial shared-data layout applied to
	// every node ("" = "striped").
	Placement string `json:"placement,omitempty"`
	// Sessions is the workload mix arriving sessions draw from (empty
	// normalizes to HL2-1280, weight 1).
	Sessions []SessionMix `json:"sessions,omitempty"`
	// LambdaSweep sweeps the arrival rate: one cell per λ (sessions per
	// second of virtual time). Lambda is the single-rate convenience
	// spelling; normalization folds it into a one-point sweep. Both empty
	// normalizes to [4].
	LambdaSweep []float64 `json:"lambda_sweep,omitempty"`
	Lambda      float64   `json:"lambda,omitempty"`
	// MeanFrames is the mean session length in frames; durations draw
	// exponentially around it (0 normalizes to 90 — one second at 90 Hz).
	MeanFrames float64 `json:"mean_frames,omitempty"`
	// Motion names the registered head-motion trace driving every
	// session's camera ("" = the built-in recorded "hmd-pan" trace).
	Motion string `json:"motion,omitempty"`
	// RefreshHz is the display refresh rate sessions submit frames at
	// (0 normalizes to 90).
	RefreshHz float64 `json:"refresh_hz,omitempty"`
	// DeadlineMs is the per-frame latency SLO (0 normalizes to the refresh
	// period, 1000/RefreshHz — 11.1 ms at 90 Hz).
	DeadlineMs float64 `json:"deadline_ms,omitempty"`
	// HorizonMs is the virtual arrival horizon: sessions arrive over
	// [0, HorizonMs), then the simulation drains (0 normalizes to 1000).
	HorizonMs float64 `json:"horizon_ms,omitempty"`
	// MaxSessionsPerNode is the admission capacity per node; a routed-to
	// node already at capacity rejects the session (0 normalizes to 32).
	MaxSessionsPerNode int `json:"max_sessions_per_node,omitempty"`
	// Router is the session→node routing policy.
	Router RouterRef `json:"router"`
	// Seed drives every random draw — arrivals, mixes, durations, session
	// seeds (0 normalizes to 1).
	Seed int64 `json:"seed,omitempty"`
}

// DecodeService strictly reads one ServiceSpec from r: unknown fields and
// trailing data are errors.
func DecodeService(r io.Reader) (ServiceSpec, error) {
	var s ServiceSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ServiceSpec{}, fmt.Errorf("spec: decode service: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return ServiceSpec{}, fmt.Errorf("spec: decode service: trailing data after the spec document")
	}
	if s.ServiceVersion == 0 {
		return ServiceSpec{}, fmt.Errorf("spec: service spec must set service_version (this build speaks %d)", ServiceVersion)
	}
	return s, nil
}

// Normalized returns the spec with every defaulted field made explicit and
// every component spelling canonical, mirroring RunSpec.Normalized: two
// specs describing the same service normalize to the same value, which is
// what Canonical hashes.
func (s ServiceSpec) Normalized() (ServiceSpec, error) {
	n := s
	if n.ServiceVersion == 0 {
		n.ServiceVersion = ServiceVersion
	}
	if n.Scheduler.Name == "" {
		n.Scheduler.Name = "oovr"
	}
	n.Scheduler.Name = planners.Canonical(n.Scheduler.Name)
	if len(n.Scheduler.Params) > 0 {
		canon, err := canonicalJSON(n.Scheduler.Params)
		if err != nil {
			return ServiceSpec{}, fmt.Errorf("spec: scheduler params: %w", err)
		}
		if s := string(canon); s == "null" || s == "{}" {
			canon = nil
		}
		n.Scheduler.Params = canon
	}
	if n.Placement == "" {
		n.Placement = "striped"
	}
	n.Placement = layouts.Canonical(n.Placement)
	if len(n.Nodes) == 0 {
		n.Nodes = []NodeGroup{{Count: 4}}
	} else {
		n.Nodes = append([]NodeGroup(nil), n.Nodes...)
	}
	for i := range n.Nodes {
		n.Nodes[i].Hardware = canonicalHardware(n.Nodes[i].Hardware)
	}
	if len(n.NodeSweep) > 0 {
		n.NodeSweep = append([]int(nil), n.NodeSweep...)
	}
	if len(n.Sessions) == 0 {
		n.Sessions = []SessionMix{{Workload: "HL2-1280"}}
	} else {
		n.Sessions = append([]SessionMix(nil), n.Sessions...)
	}
	for i := range n.Sessions {
		if n.Sessions[i].Weight == 0 {
			n.Sessions[i].Weight = 1
		}
	}
	if len(n.LambdaSweep) == 0 {
		lam := n.Lambda
		if lam == 0 {
			lam = 4
		}
		n.LambdaSweep = []float64{lam}
	} else {
		n.LambdaSweep = append([]float64(nil), n.LambdaSweep...)
	}
	// Lambda is a convenience spelling of a one-point sweep; only the sweep
	// participates in the canonical form.
	n.Lambda = 0
	if n.MeanFrames == 0 {
		n.MeanFrames = 90
	}
	if n.Motion == "" {
		n.Motion = workload.HMDPan
	}
	if n.RefreshHz == 0 {
		n.RefreshHz = 90
	}
	if n.DeadlineMs == 0 {
		n.DeadlineMs = 1000 / n.RefreshHz
	}
	if n.HorizonMs == 0 {
		n.HorizonMs = 1000
	}
	if n.MaxSessionsPerNode == 0 {
		n.MaxSessionsPerNode = 32
	}
	if n.Router.Name == "" {
		n.Router.Name = "least-loaded"
	}
	// Router names are case-insensitive; internal/service owns the
	// registry, so the spec layer folds the spelling without resolving it.
	n.Router.Name = strings.ToLower(n.Router.Name)
	if len(n.Router.Params) > 0 {
		canon, err := canonicalJSON(n.Router.Params)
		if err != nil {
			return ServiceSpec{}, fmt.Errorf("spec: router params: %w", err)
		}
		if s := string(canon); s == "null" || s == "{}" {
			canon = nil
		}
		n.Router.Params = canon
	}
	if n.Seed == 0 {
		n.Seed = 1
	}
	return n, nil
}

// Validate checks everything the spec layer can resolve without running:
// schema version, cluster shape, hardware, workload mix, trace, placement,
// scheduler, and the rate/SLO knobs, each number within its domain. A
// cell draws its arrivals up front, so lambda × horizon_ms ≤ 1e8 caps it
// at about 10^5 expected sessions. The router name resolves against
// internal/service's registry at run time (the dependency points that way),
// so an unknown router reports there, with the registered alternatives.
func (s ServiceSpec) Validate() error {
	n, err := s.Normalized()
	if err != nil {
		return err
	}
	if n.ServiceVersion != ServiceVersion {
		return fmt.Errorf("spec: unsupported service version %d (this build speaks %d)", n.ServiceVersion, ServiceVersion)
	}
	p, err := NewPlanner(n.Scheduler.Name, n.Scheduler.Params)
	if err != nil {
		return err
	}
	for gi, g := range n.Nodes {
		if err := registry.Check("spec", registry.In("nodes.count", float64(g.Count), 1, maxNodes)); err != nil {
			return err
		}
		if err := ValidateOptions(*g.Hardware); err != nil {
			return fmt.Errorf("spec: node group %d hardware: %w", gi, err)
		}
		if err := rootInside(n.Scheduler.Name, p, g.Hardware.Config.NumGPMs); err != nil {
			return err
		}
	}
	if len(n.NodeSweep) > 0 && len(n.Nodes) != 1 {
		return fmt.Errorf("spec: node_sweep requires exactly one node group, got %d", len(n.Nodes))
	}
	for _, c := range n.NodeSweep {
		if err := registry.Check("spec", registry.In("node_sweep", float64(c), 1, maxNodes)); err != nil {
			return err
		}
	}
	if _, ok := layouts.Lookup(n.Placement); !ok {
		return layouts.Unknown(n.Placement)
	}
	for _, m := range n.Sessions {
		if _, ok := WorkloadByName(m.Workload); !ok {
			return workloads.Unknown(m.Workload)
		}
		if err := registry.Check("spec", registry.In("sessions.weight", m.Weight, 0, 1e6)); err != nil {
			return err
		}
	}
	if _, ok := workload.TraceByName(n.Motion); !ok {
		return fmt.Errorf("spec: unknown motion trace %q (registered: %v)", n.Motion, workload.TraceNames())
	}
	if err := registry.Check("spec",
		registry.In("mean_frames", n.MeanFrames, 1, 1e9),
		registry.In("refresh_hz", n.RefreshHz, 1, 1e3),
		registry.In("deadline_ms", n.DeadlineMs, 1e-3, 1e6),
		registry.In("horizon_ms", n.HorizonMs, 1e-3, 1e7),
		registry.In("max_sessions_per_node", float64(n.MaxSessionsPerNode), 1, 1<<16)); err != nil {
		return err
	}
	// Normalized sweeps are never empty; min and max carry any NaN.
	lo, hi := slices.Min(n.LambdaSweep), slices.Max(n.LambdaSweep)
	return registry.Check("spec", registry.In("lambda_sweep", lo, 0, 1e6),
		registry.In("lambda_sweep", hi, 0, 1e6), registry.In("lambda × horizon_ms", hi*n.HorizonMs, 0, 1e8))
}

const maxNodes = 1 << 10 // a cluster's node count

// Canonical returns the spec's canonical encoding: the normalized spec,
// compact, with fixed field order.
func (s ServiceSpec) Canonical() ([]byte, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(n)
}

// Hash returns the spec's content address: the hex SHA-256 of the
// canonical encoding.
func (s ServiceSpec) Hash() (string, error) { return contentAddress(s.Canonical()) }

// CellSeed derives the deterministic RNG seed for one single-cell spec from
// its content, not its sweep position: the same cell reached serially, in
// parallel, or via a fleet shard draws the same arrivals.
func (s ServiceSpec) CellSeed() (int64, error) {
	c, err := s.Canonical()
	if err != nil {
		return 0, err
	}
	sum := sha256.Sum256(c)
	return int64(binary.BigEndian.Uint64(sum[:8])), nil
}

// Job is one unit of work the job server, the fleet queue and its workers
// carry: a RunSpec or a single-cell ServiceSpec. The wire form is the spec
// document itself — self-discriminating via service_version — so the
// coordinator's content-addressed task bytes stay canonical spec encodings.
type Job interface {
	Canonical() ([]byte, error)
	Hash() (string, error)
}

// Jobs widens a slice of one spec kind to the jobs a sweep carries.
func Jobs[J Job](specs []J) []Job {
	jobs := make([]Job, len(specs))
	for i, s := range specs {
		jobs[i] = s
	}
	return jobs
}

// DecodeJobBytes classifies and strictly decodes one spec document into a
// RunSpec or a ServiceSpec: a service_version field marks a ServiceSpec,
// anything else decodes as a RunSpec (whose strict decoder rejects the
// unknown field if a malformed hybrid slips through).
func DecodeJobBytes(b []byte) (Job, error) {
	var probe struct {
		ServiceVersion int `json:"service_version"`
	}
	// The lenient probe only answers "which kind?"; the kind's strict
	// decoder then owns validation.
	if err := json.Unmarshal(b, &probe); err != nil {
		return nil, fmt.Errorf("spec: decode job: %w", err)
	}
	if probe.ServiceVersion != 0 {
		return DecodeService(bytes.NewReader(b))
	}
	return Decode(bytes.NewReader(b))
}
