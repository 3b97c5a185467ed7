package experiments

import (
	"testing"

	"oovr/internal/multigpu"
	"oovr/internal/obs"
	"oovr/internal/spec"
)

// TestEveryTimelineLaneCarriesEvents records every built-in planner on
// DM3-640 for 2 frames on a 4-GPM ring and requires each lane the
// recording System, Fabric and FrameLoop register to carry at least one
// event in at least one of the runs. A lane no planner ever fills is
// instrumentation of a code path nothing reaches.
func TestEveryTimelineLaneCarriesEvents(t *testing.T) {
	hw := multigpu.DefaultOptions()
	hw.Config = hw.Config.WithTopology("ring")
	registered := map[obs.Lane]bool{}
	used := map[obs.Lane]bool{}
	for _, name := range spec.PlannerNames() {
		rs := spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Scheduler: spec.SchedulerRef{Name: name},
			Frames: 2, Hardware: &hw}
		r, err := rs.Resolve()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r.Timeline = obs.NewTimeline()
		r.Execute()
		if d := r.Timeline.Dropped(); d != 0 {
			t.Fatalf("%s: %d events dropped; an overwritten event could hide a lane's only use", name, d)
		}
		lanes := r.Timeline.Lanes()
		for _, l := range lanes {
			registered[l] = true
		}
		for _, e := range r.Timeline.Events() {
			used[lanes[e.Lane]] = true
		}
	}
	// 4 GPMs × ship/execute/compose, 8 directed ring links, driver frames.
	if want := 4*3 + 8 + 1; len(registered) != want {
		t.Errorf("%d lanes registered, want %d", len(registered), want)
	}
	for l := range registered {
		if !used[l] {
			t.Errorf("lane %s/%s carries no event under any planner", l.Proc, l.Name)
		}
	}
}
