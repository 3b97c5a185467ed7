package core

import (
	"fmt"

	"oovr/internal/sim"
)

// CalibrationBatches is how many initial batches are distributed round-robin
// to fit the predictor (Section 5.2: "the distribution engine uses the first
// 8 batches to initialize c0, c1 and c2"; only c0 is modelled here).
const CalibrationBatches = 8

// MaxBatchQueue is the distribution engine's batch queue depth ("we limit
// the maximum size of the batch queue to 4").
const MaxBatchQueue = 4

// Predictor is the total-time form of Equation (3):
//
//	t(X) = c0 · #triangle_x
//
// It estimates a batch's rendering time before the batch runs. Only c0 is
// fitted. The elapsed form (c1 · #tv_x + c2 · #pixel_x), which the paper
// uses to track progress from the GPM counters, is not modelled: the
// simulator reports each task's exact end time, so nothing would read it.
type Predictor struct {
	c0         float64
	calibrated bool

	// Calibration accumulators: per-batch observations from the first
	// CalibrationBatches batches.
	obsTriangles float64
	obsCycles    float64
	obsCount     int
}

// Calibrated reports whether c0 has been fitted.
func (p *Predictor) Calibrated() bool { return p.calibrated }

// Observe feeds one completed calibration batch: its triangle count and its
// measured rendering cycles. After CalibrationBatches observations c0 is
// fitted automatically; later observations are ignored.
func (p *Predictor) Observe(triangles, cycles float64) {
	if p.calibrated {
		return
	}
	if cycles < 0 {
		panic(fmt.Sprintf("core: negative observed cycles %v", cycles))
	}
	p.obsTriangles += triangles
	p.obsCycles += cycles
	p.obsCount++
	if p.obsCount >= CalibrationBatches {
		p.fit()
	}
}

// fit derives c0, cycles per triangle, from the accumulated observations.
// The paper's model is deliberately simple: a single rate, not a
// least-squares fit.
func (p *Predictor) fit() {
	if p.obsTriangles > 0 {
		p.c0 = p.obsCycles / p.obsTriangles
	}
	p.calibrated = true
}

// PredictTotal estimates a batch's rendering time from its triangle count
// (the only property known before rendering, available from the
// OO_Application).
func (p *Predictor) PredictTotal(triangles float64) float64 {
	if !p.calibrated {
		return 0
	}
	return p.c0 * triangles
}

// GPMCounters is the per-GPM state of the distribution engine (Section
// 5.2). It holds the total-rendering-time counter as a predicted free
// time. It has no elapsed counter driven by #tv and #pixel increments,
// because the simulator knows when each task ends.
type GPMCounters struct {
	// PredictedFree is when the GPM is expected to become available (the
	// "total rendering time" counter mapped onto the sim clock).
	PredictedFree sim.Time
	// QueuedBatches is the number of batches waiting on this GPM (bounded
	// by MaxBatchQueue).
	QueuedBatches int
}

// EarliestAvailable picks the GPM with the smallest predicted availability
// whose queue has room, breaking ties toward lower indices. It returns -1
// when every queue is full.
func EarliestAvailable(counters []GPMCounters) int {
	best := -1
	for g := range counters {
		if counters[g].QueuedBatches >= MaxBatchQueue {
			continue
		}
		if best < 0 || counters[g].PredictedFree < counters[best].PredictedFree {
			best = g
		}
	}
	return best
}
