package spec

import (
	"reflect"
	"testing"

	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/par"
)

// timelineSpec is the canonical x-ray target: HL2-1280 under OO-VR on a
// ring (shared hops make link contention visible).
func timelineSpec() RunSpec {
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithTopology("ring")
	return RunSpec{
		Workload:  WorkloadRef{Name: "HL2-1280"},
		Scheduler: SchedulerRef{Name: "oovr"},
		Hardware:  &opt,
		Frames:    4,
		Seed:      1,
	}
}

// TestTimelineDeterministicAcrossPaths pins the x-ray invariants: the
// same spec records the same event stream whether executed serially or
// concurrently — and recording never perturbs the Metrics (observation
// feeds nothing back). The batch and session entry points are pinned
// against each other in internal/experiments.
func TestTimelineDeterministicAcrossPaths(t *testing.T) {
	runOne := func(tl *obs.Timeline) multigpu.Metrics {
		r, err := timelineSpec().Resolve()
		if err != nil {
			t.Fatal(err)
		}
		r.Timeline = tl
		return r.Execute()
	}

	ref := obs.NewTimeline()
	refM := runOne(ref)
	if len(ref.Events()) == 0 {
		t.Fatal("timeline run recorded nothing")
	}
	if d := ref.Dropped(); d != 0 {
		t.Fatalf("reference run overflowed the ring (%d dropped); the golden would be unstable", d)
	}
	refFP := ref.Fingerprint()

	// Concurrent executions (each run owns its recorder) must all match.
	const n = 6
	fps := make([]string, n)
	par.ForEach(n, n, func(i int) {
		r, err := timelineSpec().Resolve()
		if err != nil {
			t.Error(err)
			return
		}
		r.Timeline = obs.NewTimeline()
		r.Execute()
		fps[i] = r.Timeline.Fingerprint()
	})
	for i, fp := range fps {
		if fp != refFP {
			t.Fatalf("concurrent run %d fingerprint %s != serial %s", i, fp, refFP)
		}
	}

	// Observation never feeds back: a recording run's Metrics are exactly
	// a plain run's.
	if pm := runOne(nil); !reflect.DeepEqual(pm, refM) {
		t.Fatal("recording perturbed the Metrics")
	}
}
