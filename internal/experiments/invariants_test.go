package experiments

import (
	"math"
	"testing"

	"oovr/internal/driver"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/obs"
)

// TestTrafficInvariantsOverTheSpecMatrix checks the model's accounting
// invariants as a property over every scheduler and every paper case, at
// 4 and 8 GPMs on the full mesh, two frames each (126 runs):
//
//   - the five per-kind Remote*Bytes sum to InterGPMBytes;
//   - the per-link byte counts sum to InterGPMBytes (on the full mesh every
//     remote flow crosses exactly one link);
//   - every link utilization lies in [0,1];
//   - no frame latency and no GPM's busy time exceeds the run's TotalCycles;
//   - every timeline event the run retains satisfies Start <= End <=
//     TotalCycles (some runs overflow the recorder's ring; the overwritten
//     events are not checked).
//
// Sums are compared within 1e-12 relative: they add the same bytes in a
// different order.
func TestTrafficInvariantsOverTheSpecMatrix(t *testing.T) {
	const tol = 1e-12
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= tol*math.Max(math.Abs(want), 1)
	}
	for _, gpms := range []int{4, 8} {
		sys := multigpu.DefaultOptions()
		sys.Config = sys.Config.WithGPMs(gpms)
		for _, s := range SpecMatrix(Options{Frames: 2, System: &sys}, nil) {
			r, err := s.Resolve()
			if err != nil {
				t.Fatalf("%d GPMs: %v", gpms, err)
			}
			r.Timeline = obs.NewTimeline()
			m := r.Execute()
			run := func(format string, args ...any) {
				t.Helper()
				t.Errorf("%d GPMs, %s on %s: "+format, append([]any{gpms, m.Scheme, m.Workload}, args...)...)
			}
			kinds := m.RemoteTextureBytes + m.RemoteCompositionBytes + m.RemoteDepthBytes +
				m.RemoteCommandBytes + m.RemoteVertexBytes
			if !near(kinds, m.InterGPMBytes) {
				run("per-kind remote bytes sum to %v, InterGPMBytes %v", kinds, m.InterGPMBytes)
			}
			if len(m.Links) == 0 {
				run("no link statistics")
			}
			var links float64
			for _, l := range m.Links {
				links += l.Bytes
				if l.Utilization < 0 || l.Utilization > 1 {
					run("link %s utilization %v outside [0,1]", l.Name, l.Utilization)
				}
			}
			if !near(links, m.InterGPMBytes) {
				run("link bytes sum to %v, InterGPMBytes %v", links, m.InterGPMBytes)
			}
			for i, l := range m.FrameLatencies {
				if l > m.TotalCycles {
					run("frame %d latency %v exceeds TotalCycles %v", i, l, m.TotalCycles)
				}
			}
			for g, b := range m.GPMBusyCycles {
				if b > m.TotalCycles {
					run("GPM %d busy %v exceeds TotalCycles %v", g, b, m.TotalCycles)
				}
			}
			for _, e := range r.Timeline.Events() {
				if e.Start > e.End || float64(e.End) > m.TotalCycles {
					run("timeline event %s spans [%d,%d], TotalCycles %v", e.Name, e.Start, e.End, m.TotalCycles)
					break
				}
			}
		}
	}
}

// TestRoutedLinkBytesInvariant generalizes the full-mesh link-bytes sum to
// the routed topologies: a logical src->dst flow occupies every physical
// link of its route, so over the whole run
//
//	Σ per-link Bytes = Σ over GPM pairs s≠d of LinkBytes(s,d) × len(Route(s,d))
//
// within 1e-12 relative. It runs the spec matrix at 5 GPMs (an odd count,
// so ring and mesh2d have routes of unequal length), two frames each, on
// every routed topology family.
func TestRoutedLinkBytesInvariant(t *testing.T) {
	const tol = 1e-12
	for _, topoName := range []string{"ring", "chain", "mesh2d", "switch", "hierarchical"} {
		opt := multigpu.DefaultOptions()
		opt.Config = opt.Config.WithGPMs(5).WithTopology(topoName)
		for _, s := range SpecMatrix(Options{Frames: 2, System: &opt}, nil) {
			r, err := s.Resolve()
			if err != nil {
				t.Fatalf("%s: %v", topoName, err)
			}
			sys := multigpu.New(r.Options, r.Case.Spec.Generate(r.Case.Width, r.Case.Height, r.Spec.Frames, r.Spec.Seed))
			r.Layout(sys)
			m := driver.Run(sys, r.Planner)
			var links, routed float64
			for _, l := range m.Links {
				links += l.Bytes
			}
			g, tr := sys.Fabric.Topology(), sys.Mem.Traffic()
			for src := 0; src < sys.NumGPMs(); src++ {
				for dst := 0; dst < sys.NumGPMs(); dst++ {
					if src != dst {
						routed += tr.LinkBytes(mem.GPMID(src), mem.GPMID(dst)) * float64(len(g.Route(src, dst)))
					}
				}
			}
			if math.Abs(links-routed) > tol*math.Max(routed, 1) {
				t.Errorf("%s, %s on %s: link bytes sum to %v, routed pair bytes %v",
					topoName, m.Scheme, m.Workload, links, routed)
			}
		}
	}
}
