package main

import (
	"time"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/scene"
)

// timedPlanner wraps a driver.Planner and adds the host time spent in
// PlanFrame to *spent. Name is forwarded by embedding (it labels the
// Metrics), and the frame planner keeps the driver.Observer hook when the
// wrapped one has it: the OO-VR engine calibrates its predictor through
// TaskDone, so losing it would silently change the simulated results.
type timedPlanner struct {
	driver.Planner
	spent *time.Duration
}

func (p timedPlanner) Begin(sys *multigpu.System) (driver.FramePlanner, driver.Profile) {
	fp, prof := p.Planner.Begin(sys)
	t := timedFramePlanner{fp: fp, spent: p.spent}
	if ob, ok := fp.(driver.Observer); ok {
		return observingFramePlanner{t, ob}, prof
	}
	return t, prof
}

type timedFramePlanner struct {
	fp    driver.FramePlanner
	spent *time.Duration
}

func (t timedFramePlanner) PlanFrame(f *scene.Frame, fi int) driver.Plan {
	t0 := time.Now()
	p := t.fp.PlanFrame(f, fi)
	*t.spent += time.Since(t0)
	return p
}

type observingFramePlanner struct {
	timedFramePlanner
	driver.Observer
}
