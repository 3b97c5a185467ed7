package spec

import (
	"encoding/json"
	"fmt"

	"oovr/internal/multigpu"
)

// ResultSchemaVersion versions the Result wire format independently of the
// RunSpec schema: consumers of cached results check it before trusting the
// field layout.
const ResultSchemaVersion = 1

// Result is the versioned outcome of one RunSpec: the normalized spec it
// answers, its content address, and the collected metrics. Encoded
// canonically (fixed field order — multigpu.Metrics marshals with an
// explicit field sequence), equal runs produce byte-identical Results, so
// the job server's cache can serve stored bytes verbatim.
type Result struct {
	SchemaVersion int              `json:"schema_version"`
	SpecHash      string           `json:"spec_hash"`
	Spec          RunSpec          `json:"spec"`
	Metrics       multigpu.Metrics `json:"metrics"`
}

// NewResult assembles a Result for the given spec and metrics; the spec is
// normalized and hashed here so every producer agrees on the address.
func NewResult(s RunSpec, m multigpu.Metrics) (Result, error) {
	n, err := s.Normalized()
	if err != nil {
		return Result{}, err
	}
	h, err := n.Hash()
	if err != nil {
		return Result{}, err
	}
	return Result{SchemaVersion: ResultSchemaVersion, SpecHash: h, Spec: n, Metrics: m}, nil
}

// Encode returns the canonical (compact) JSON bytes of the result.
func (r Result) Encode() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("spec: encode result: %w", err)
	}
	return b, nil
}

// DecodeResult parses a canonical Result and rejects unknown schema
// versions. It returns the value Encode writes back, so decode → encode →
// decode is the identity: Encode omits an empty Links list and writes
// scheduler params compact and HTML-escaped, and so does the decoded value.
func DecodeResult(b []byte) (Result, error) {
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return Result{}, fmt.Errorf("spec: decode result: %w", err)
	}
	if r.SchemaVersion != ResultSchemaVersion {
		return Result{}, fmt.Errorf("spec: unsupported result schema %d (this build speaks %d)",
			r.SchemaVersion, ResultSchemaVersion)
	}
	if len(r.Metrics.Links) == 0 {
		r.Metrics.Links = nil
	}
	if p := r.Spec.Scheduler.Params; len(p) > 0 {
		var err error
		if r.Spec.Scheduler.Params, err = json.Marshal(p); err != nil {
			return Result{}, fmt.Errorf("spec: decode result: %w", err)
		}
	}
	return r, nil
}
