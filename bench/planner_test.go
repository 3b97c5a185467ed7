package main

import (
	"reflect"
	"testing"
	"time"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

// Wrapping must not perturb the simulation: OO-VR calibrates its predictor
// through driver.Observer, so a wrapper that dropped the hook would change
// the Metrics without failing anything else.
func TestTimedPlannerKeepsNameAndObserver(t *testing.T) {
	rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "HL2-1280"}, Scheduler: spec.SchedulerRef{Name: "oovr"}}
	plain, err := rs.Run()
	if err != nil {
		t.Fatal(err)
	}
	r, err := rs.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	var spent time.Duration
	wrapped := timedPlanner{Planner: r.Planner, spent: &spent}
	if wrapped.Name() != r.Planner.Name() {
		t.Errorf("Name() = %q, want %q", wrapped.Name(), r.Planner.Name())
	}
	r.Planner = wrapped
	if got := r.Execute(); !reflect.DeepEqual(got, plain) {
		t.Errorf("wrapped OO-VR run differs from the plain one:\n got %+v\nwant %+v", got, plain)
	}
	if spent <= 0 {
		t.Error("no planning time recorded")
	}
}

func TestTimedPlannerForwardsObserverOnlyWhenPresent(t *testing.T) {
	c, _ := workload.CaseByName("HL2-1280")
	sc := c.Spec.Generate(c.Width, c.Height, 1, 1)
	for _, name := range []string{"oovr", "baseline"} {
		p, err := spec.NewPlanner(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		inner, _ := p.Begin(multigpu.New(multigpu.DefaultOptions(), sc))
		_, innerObserves := inner.(driver.Observer)
		var spent time.Duration
		outer, _ := timedPlanner{Planner: p, spent: &spent}.Begin(multigpu.New(multigpu.DefaultOptions(), sc))
		if _, ok := outer.(driver.Observer); ok != innerObserves {
			t.Errorf("%s: wrapped frame planner observes = %v, inner = %v", name, ok, innerObserves)
		}
	}
}
