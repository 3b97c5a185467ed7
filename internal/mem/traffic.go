package mem

import (
	"fmt"
	"strings"
)

// Traffic accumulates the byte flows of a simulation run. It distinguishes
// local DRAM traffic from inter-GPM traffic, attributes inter-GPM bytes to
// (source, destination) link pairs, and breaks inter-GPM totals down by
// segment kind; Figure 9 and Figure 16 of the paper are plots of these
// counters.
type Traffic struct {
	local      []float64   // per GPM
	link       [][]float64 // [src][dst] bytes crossing the src->dst link
	kindRemote []float64   // per SegmentKind
	// hop accumulates bytes per *physical* link of the interconnect
	// topology, indexed by link ID. The (src,dst) matrix above is logical
	// (which GPM pair communicated); under a routed topology one logical
	// flow crosses several physical links, and the fabric records each hop
	// here as it reserves it. Nil until ConfigureHops sizes it.
	hop []float64
}

// NewTraffic creates an empty traffic account for n GPMs.
func NewTraffic(n int) *Traffic {
	link := make([][]float64, n)
	for i := range link {
		link[i] = make([]float64, n)
	}
	return &Traffic{
		local:      make([]float64, n),
		link:       link,
		kindRemote: make([]float64, numKinds),
	}
}

// Record adds a flow to the account.
func (t *Traffic) Record(f Flow) {
	t.local[f.Requester] += f.LocalBytes
	for src, b := range f.RemoteBySrc {
		if b == 0 {
			continue
		}
		t.link[src][f.Requester] += b
		t.kindRemote[f.Kind] += b
	}
}

// TotalLocal returns local DRAM bytes summed over all GPMs.
func (t *Traffic) TotalLocal() float64 {
	var s float64
	for _, v := range t.local {
		s += v
	}
	return s
}

// LinkBytes returns the bytes that crossed the src->dst link.
func (t *Traffic) LinkBytes(src, dst GPMID) float64 { return t.link[src][dst] }

// TotalInterGPM returns the total bytes that crossed any inter-GPM link —
// the paper's headline "inter-GPM memory traffic" metric.
func (t *Traffic) TotalInterGPM() float64 {
	var s float64
	for i := range t.link {
		for j := range t.link[i] {
			s += t.link[i][j]
		}
	}
	return s
}

// RemoteByKind returns the inter-GPM bytes attributed to the given kind.
func (t *Traffic) RemoteByKind(k SegmentKind) float64 { return t.kindRemote[k] }

// ConfigureHops sizes the per-physical-link accounting for a topology of n
// links. The fabric calls it once at system construction; RecordHop panics
// without it.
func (t *Traffic) ConfigureHops(n int) {
	t.hop = make([]float64, n)
}

// RecordHop attributes bytes to one physical link of the topology. The
// fabric calls it for every hop of every routed flow.
func (t *Traffic) RecordHop(link int, bytes float64) {
	t.hop[link] += bytes
}

// NumHops returns how many physical links the account tracks (0 when no
// topology was configured — single-GPM systems).
func (t *Traffic) NumHops() int { return len(t.hop) }

// HopBytes returns the bytes that crossed the physical link with the given
// ID.
func (t *Traffic) HopBytes(link int) float64 { return t.hop[link] }

// MaxLinkBytes returns the most loaded directed link's byte count.
func (t *Traffic) MaxLinkBytes() float64 {
	var m float64
	for i := range t.link {
		for j := range t.link[i] {
			if t.link[i][j] > m {
				m = t.link[i][j]
			}
		}
	}
	return m
}

// String renders a compact human-readable summary.
func (t *Traffic) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "local=%.3g inter-GPM=%.3g", t.TotalLocal(), t.TotalInterGPM())
	for k := SegmentKind(0); k < numKinds; k++ {
		if t.kindRemote[k] > 0 {
			fmt.Fprintf(&b, " remote[%s]=%.3g", k, t.kindRemote[k])
		}
	}
	return b.String()
}
