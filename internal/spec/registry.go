// Package spec is the declarative run layer: a serializable RunSpec
// describes one simulation — workload, scheduler, hardware, placement and
// run knobs — by *name*, and the package's component registries resolve the
// names to executable pieces. The spec is the API seam every submission
// surface shares: cmd/oovrsim builds one from its flags, the experiment
// harness builds one per figure case, and cmd/oovrd accepts them over HTTP,
// caching results under the canonical spec encoding.
//
// Three registry.Tables back the resolution, mirroring the named-plugin
// shape of production schedulers:
//
//   - planners: scheduling policies (driver.Planner factories taking JSON
//     params) — the seven evaluated schemes and the "single" validation
//     vehicle register at init, user policies via RegisterPlanner;
//   - workloads: benchmark cases (the paper's nine plus the VRWorks
//     validation scenes) via RegisterWorkload;
//   - layouts: initial NUMA placements for the shared texture/vertex pool
//     via RegisterLayout.
//
// The other named axes resolve through the same Table type in the package
// that owns them: the interconnect topology of the hardware block in
// internal/topo, and a ServiceSpec's router and motion trace in
// internal/service and internal/workload.
//
// DESIGN.md §7 documents the layer; §8 documents the topology model.
package spec

import (
	"encoding/json"
	"fmt"
	"strings"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/registry"
	"oovr/internal/workload"
)

// PlannerFactory builds a scheduling policy from its JSON params. A nil or
// empty params message must yield the scheme's calibrated default
// configuration; unknown param fields are an error.
type PlannerFactory func(params json.RawMessage) (driver.Planner, error)

// LayoutFunc applies a named initial placement of the shared texture and
// vertex data to a freshly bound system, before any frame runs.
type LayoutFunc func(sys *multigpu.System)

var (
	planners  = registry.New[PlannerFactory]("spec", "scheduler", true)
	workloads = registry.New[workload.Case]("spec", "workload", false)
	layouts   = registry.New[LayoutFunc]("spec", "placement layout", true)
)

// RegisterPlanner adds a named scheduling policy to the registry (plus any
// aliases), so RunSpecs can reference it by string. Names are
// case-insensitive; registering a taken name panics.
func RegisterPlanner(name string, f PlannerFactory, aliases ...string) {
	if f == nil {
		panic("spec: nil PlannerFactory for " + name)
	}
	planners.Register(name, f, aliases...)
}

// NewPlanner resolves a registered scheduling policy and builds it from the
// given params. Unknown names report the sorted registered list.
func NewPlanner(name string, params json.RawMessage) (driver.Planner, error) {
	f, ok := planners.Lookup(name)
	if !ok {
		return nil, planners.Unknown(name)
	}
	p, err := f(params)
	if err != nil {
		return nil, fmt.Errorf("spec: scheduler %q params: %w", name, err)
	}
	return p, nil
}

// PlannerNames returns the sorted primary names of all registered policies.
func PlannerNames() []string { return planners.Names() }

// RegisterWorkload adds a named benchmark case. Names are case-sensitive
// (they are figure labels like "HL2-1280").
func RegisterWorkload(name string, c workload.Case) { workloads.Register(name, c) }

// WorkloadByName resolves a registered benchmark case.
func WorkloadByName(name string) (workload.Case, bool) { return workloads.Lookup(name) }

// WorkloadNames returns the sorted names of all registered workloads.
func WorkloadNames() []string { return workloads.Names() }

// RegisterLayout adds a named initial shared-data placement.
func RegisterLayout(name string, f LayoutFunc) {
	if f == nil {
		panic("spec: nil LayoutFunc for " + name)
	}
	layouts.Register(name, f)
}

// LayoutNames returns the sorted names of all registered layouts.
func LayoutNames() []string { return layouts.Names() }

// DecodeParams strictly unmarshals a factory's params over defaults already
// present in v (a nil/empty message leaves the defaults untouched); unknown
// fields are an error. Planner factories use it for their param structs.
func DecodeParams(params json.RawMessage, v any) error {
	if len(params) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(params)))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
