package main

import (
	"math"
	"testing"
	"time"
)

// pausingBench does nothing but pause for reference slices.
type pausingBench struct{ n int }

func (p pausingBench) run(rec *recorder) {
	for i := 0; i < p.n; i++ {
		rec.pause()
	}
}
func (pausingBench) verify(*recorder)                        {}
func (pausingBench) layers(time.Duration) map[string]float64 { return nil }
func (pausingBench) close()                                  {}

// The timed phase's wall time leaves out the reference slices, and the
// speed they give is a finite positive factor.
func TestReferenceSlicesAreNotTimed(t *testing.T) {
	ref, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	rec := newRecorder(nil)
	rec.ref = ref
	ph := measure(pausingBench{n: 4}, rec)
	if rec.failures() != 0 {
		t.Fatalf("reference slices failed: %v", rec.notes)
	}
	if rec.refSlices != 4 {
		t.Fatalf("%d slices timed, want 4", rec.refSlices)
	}
	if ph.wall*2 > rec.refSpent {
		t.Errorf("timed %v of the %v spent in reference slices", ph.wall, rec.refSpent)
	}
	if s := rec.speed(); s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Errorf("speed = %v", s)
	}
	if s := newRecorder(nil).speed(); s != 1 {
		t.Errorf("speed without slices = %v, want 1", s)
	}
}
