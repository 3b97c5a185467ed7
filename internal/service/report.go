package service

import (
	"encoding/json"
	"fmt"

	"oovr/internal/spec"
)

// ReportSchemaVersion versions the service Report wire format. Its JSON key
// ("service_schema_version") doubles as the document discriminator that
// tells a service report apart from a RunSpec Result in the fleet's
// verification path.
const ReportSchemaVersion = 1

// CellReport is the outcome of one sweep cell: one cluster size at one
// arrival rate, simulated to drain. Counters satisfy the conservation law
// Rejected + Completed + DroppedSessions == Arrivals once the cell drains
// (every admitted session either finishes its frames or is evicted).
type CellReport struct {
	// Nodes is the cluster size the cell ran with.
	Nodes int `json:"nodes"`
	// Lambda is the cell's arrival rate (sessions per second).
	Lambda float64 `json:"lambda"`
	// Arrivals is how many sessions the Poisson process offered.
	Arrivals int `json:"arrivals"`
	// Admitted sessions were routed to a node with spare capacity.
	Admitted int `json:"admitted"`
	// Rejected sessions found no node with capacity (admission control).
	Rejected int `json:"rejected"`
	// Completed sessions rendered every frame of their duration.
	Completed int `json:"completed"`
	// DroppedSessions were evicted after sustained deadline collapse.
	DroppedSessions int `json:"dropped_sessions"`
	// PeakSessions is the maximum concurrently resident session count.
	PeakSessions int `json:"peak_sessions"`
	// Frames is how many frames were rendered (dropped frames excluded).
	Frames int `json:"frames"`
	// LateFrames finished past the per-frame deadline.
	LateFrames int `json:"late_frames"`
	// DroppedFrames were skipped because the node's queue had fallen more
	// than two deadlines behind.
	DroppedFrames int `json:"dropped_frames"`
	// P50Ms/P95Ms/P99Ms/MaxMs are frame-latency percentiles (ms from a
	// frame's display due time to its render completion, nearest-rank).
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// SLOMet reports the cell held the service level objective: p99 within
	// the deadline with no rejections, dropped frames or evictions.
	SLOMet bool `json:"slo_met"`
	// NodeSessions and NodeUtilization are per-node totals: sessions
	// admitted to the node, and busy time over the cell's makespan.
	NodeSessions    []int     `json:"node_sessions,omitempty"`
	NodeUtilization []float64 `json:"node_utilization,omitempty"`
}

// Report is the versioned outcome of a ServiceSpec: the normalized spec it
// answers, its content address, and one CellReport per sweep cell in
// CellSpecs order. Encoded canonically (fixed field order), equal sweeps
// produce byte-identical Reports whether the cells ran serially, in
// parallel, or sharded across a fleet.
type Report struct {
	SchemaVersion int              `json:"service_schema_version"`
	SpecHash      string           `json:"spec_hash"`
	Spec          spec.ServiceSpec `json:"spec"`
	Cells         []CellReport     `json:"cells"`
}

// NewReport assembles a Report for the given spec from its cell reports in
// CellSpecs order, wherever they ran (in-process or on a fleet); the spec
// is normalized and hashed here so every producer agrees on the address.
func NewReport(s spec.ServiceSpec, cells []CellReport) (Report, error) {
	n, err := s.Normalized()
	if err != nil {
		return Report{}, err
	}
	h, err := n.Hash()
	if err != nil {
		return Report{}, err
	}
	return Report{SchemaVersion: ReportSchemaVersion, SpecHash: h, Spec: n, Cells: cells}, nil
}

// Encode returns the canonical (compact) JSON bytes of the report.
func (r Report) Encode() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("service: encode report: %w", err)
	}
	return b, nil
}

// DecodeReport parses a canonical Report and rejects unknown schema
// versions.
func DecodeReport(b []byte) (Report, error) {
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return Report{}, fmt.Errorf("service: decode report: %w", err)
	}
	if r.SchemaVersion != ReportSchemaVersion {
		return Report{}, fmt.Errorf("service: unsupported report schema %d (this build speaks %d)",
			r.SchemaVersion, ReportSchemaVersion)
	}
	return r, nil
}

// VerifyReportBody decodes a Report and re-derives its embedded spec's
// content address, rejecting a body whose claimed spec_hash does not match
// — the fleet's integrity gate for service results, mirroring what
// DecodeVerifiedResult does for RunSpec Results.
func VerifyReportBody(b []byte) (Report, error) {
	r, err := DecodeReport(b)
	if err != nil {
		return Report{}, err
	}
	h, err := r.Spec.Hash()
	if err != nil {
		return Report{}, fmt.Errorf("service: verify report: %w", err)
	}
	if h != r.SpecHash {
		return Report{}, fmt.Errorf("service: report hash mismatch: body claims %s, spec hashes to %s", r.SpecHash, h)
	}
	return r, nil
}

// IsReportBody reports whether a result body is a service Report rather
// than a RunSpec Result, by probing for the discriminating schema field.
func IsReportBody(b []byte) bool {
	var probe struct {
		SchemaVersion int `json:"service_schema_version"`
	}
	return json.Unmarshal(b, &probe) == nil && probe.SchemaVersion != 0
}
