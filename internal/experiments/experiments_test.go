package experiments

import (
	"slices"
	"strings"
	"testing"

	"oovr/internal/multigpu"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

// fastOptions keeps harness tests quick: one small case, two frames.
func fastOptions() Options {
	c, _ := workload.CaseByName("DM3-640")
	return Options{Frames: 2, Seed: 1, Cases: []workload.Case{c}}
}

func TestDefaultsFillUnsetFields(t *testing.T) {
	o := Options{}.defaults()
	if o.Frames != 6 || o.Seed != 1 {
		t.Errorf("defaults = %+v", o)
	}
	if len(o.Cases) != 9 {
		t.Errorf("default cases = %d, want the paper's 9", len(o.Cases))
	}
}

func TestE0SMPValidation(t *testing.T) {
	fig := E0SMPValidation(fastOptions())
	// One case + the two VRWorks stand-ins.
	if len(fig.XLabels) != 3 {
		t.Fatalf("labels = %v", fig.XLabels)
	}
	s := fig.Series[0]
	for i, v := range s.Values {
		if v < 1 {
			t.Errorf("SMP slower than sequential on %s: %v", fig.XLabels[i], v)
		}
		if v > 2.2 {
			t.Errorf("SMP speedup implausibly high on %s: %v", fig.XLabels[i], v)
		}
	}
}

func TestF4BandwidthMonotone(t *testing.T) {
	fig := F4Bandwidth(fastOptions())
	if len(fig.Series) != 5 {
		t.Fatalf("series = %d, want 5 bandwidths", len(fig.Series))
	}
	// Performance must not improve as bandwidth shrinks.
	for ci := range fig.XLabels {
		prev := fig.Series[0].Values[ci]
		for _, s := range fig.Series[1:] {
			if s.Values[ci] > prev+1e-9 {
				t.Errorf("%s: performance rose when bandwidth dropped (%s: %v after %v)",
					fig.XLabels[ci], s.Name, s.Values[ci], prev)
			}
			prev = s.Values[ci]
		}
	}
	// The reference row is exactly 1.
	for _, v := range fig.Series[0].Values {
		if v != 1 {
			t.Errorf("1TB/s row not normalized: %v", v)
		}
	}
}

func TestF7AFRTradeoff(t *testing.T) {
	fig := F7AFR(fastOptions())
	perf, _ := fig.SeriesByName("Overall performance")
	lat, _ := fig.SeriesByName("Single frame latency")
	for i := range perf.Values {
		if perf.Values[i] <= 1 {
			t.Errorf("AFR overall perf %v should beat baseline (Section 4.1)", perf.Values[i])
		}
		if lat.Values[i] <= 1 {
			t.Errorf("AFR latency ratio %v should exceed baseline (Section 4.1)", lat.Values[i])
		}
	}
}

func TestF8F9SFROrderings(t *testing.T) {
	perf := F8SFRPerformance(fastOptions())
	traffic := F9SFRTraffic(fastOptions())
	obj, _ := perf.SeriesByName("Object-Level")
	tv, _ := perf.SeriesByName("Tile-Level (V)")
	for i := range obj.Values {
		if obj.Values[i] <= tv.Values[i] {
			t.Errorf("object-level (%v) should outperform tile-V (%v) — Figure 8",
				obj.Values[i], tv.Values[i])
		}
	}
	objT, _ := traffic.SeriesByName("Object-Level")
	tvT, _ := traffic.SeriesByName("Tile-Level (V)")
	for i := range objT.Values {
		if objT.Values[i] >= tvT.Values[i] {
			t.Errorf("object-level traffic (%v) should be below tile-V (%v) — Figure 9",
				objT.Values[i], tvT.Values[i])
		}
	}
}

func TestF10ImbalanceAtLeastOne(t *testing.T) {
	fig := F10Imbalance(fastOptions())
	for _, v := range fig.Series[0].Values {
		if v < 1 {
			t.Errorf("best-to-worst ratio below 1: %v", v)
		}
	}
}

func TestF15OOVRBeatsBaselineAndObject(t *testing.T) {
	fig := F15Speedup(fastOptions())
	ovr, _ := fig.SeriesByName("OOVR")
	obj, _ := fig.SeriesByName("Object-Level")
	for i := range ovr.Values {
		if ovr.Values[i] <= 1 {
			t.Errorf("OOVR speedup %v should exceed baseline", ovr.Values[i])
		}
		if ovr.Values[i] <= obj.Values[i] {
			t.Errorf("OOVR (%v) should beat object-level SFR (%v) — Figure 15",
				ovr.Values[i], obj.Values[i])
		}
	}
}

func TestF16OOVRSavesTraffic(t *testing.T) {
	fig := F16Traffic(fastOptions())
	ovr, _ := fig.SeriesByName("OOVR")
	for _, v := range ovr.Values {
		if v >= 0.6 {
			t.Errorf("OOVR traffic ratio %v too high (paper: 0.24)", v)
		}
	}
}

func TestF17OOVRLessSensitiveThanBaseline(t *testing.T) {
	fig := F17BandwidthScaling(fastOptions())
	base, _ := fig.SeriesByName("Baseline")
	ovr, _ := fig.SeriesByName("OOVR")
	// Relative swing from 32 GB/s to 256 GB/s must be smaller for OO-VR.
	baseSwing := base.Values[len(base.Values)-1] / base.Values[0]
	ovrSwing := ovr.Values[len(ovr.Values)-1] / ovr.Values[0]
	if ovrSwing >= baseSwing {
		t.Errorf("OOVR bandwidth swing %v not below baseline %v — Figure 17", ovrSwing, baseSwing)
	}
}

func TestF18ScalingMonotone(t *testing.T) {
	// Scaling needs a workload big enough to occupy 8 GPMs and enough
	// frames to amortize OO-VR's cold start, so this test uses HL2-1280.
	c, _ := workload.CaseByName("HL2-1280")
	fig := F18GPMScaling(Options{Frames: 6, Seed: 1, Cases: []workload.Case{c}})
	ovr, _ := fig.SeriesByName("OOVR")
	for i := 1; i < len(ovr.Values); i++ {
		if ovr.Values[i] <= ovr.Values[i-1] {
			t.Errorf("OOVR scaling not monotone at %s: %v after %v",
				fig.XLabels[i], ovr.Values[i], ovr.Values[i-1])
		}
	}
	// At 8 GPMs OO-VR must scale further than the baseline.
	base, _ := fig.SeriesByName("Baseline")
	if ovr.Values[3] <= base.Values[3] {
		t.Errorf("OOVR@8 (%v) should beat baseline@8 (%v) — Figure 18", ovr.Values[3], base.Values[3])
	}
}

func TestO1Overhead(t *testing.T) {
	fig := O1Overhead()
	if fig.Series[0].Values[3] != 960 {
		t.Errorf("total bits = %v, Section 5.4 says 960", fig.Series[0].Values[3])
	}
}

func TestTrafficBreakdownSumsToOne(t *testing.T) {
	fig := TrafficBreakdown(fastOptions())
	var sum float64
	for _, v := range fig.Series[0].Values {
		if v < 0 {
			t.Errorf("negative traffic fraction %v", v)
		}
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("fractions sum to %v, want 1", sum)
	}
}

func TestAblationsRun(t *testing.T) {
	o := fastOptions()
	a1 := A1NoBatching(o)
	if _, ok := a1.SeriesByName("OOVR (full)"); !ok {
		t.Errorf("A1 missing full series: %v", a1.Series)
	}
	a2 := A2NoPredictor(o)
	if len(a2.Series) != 2 {
		t.Errorf("A2 series = %d", len(a2.Series))
	}
	a3 := A3NoDHC(o)
	if len(a3.Series) != 2 {
		t.Errorf("A3 series = %d", len(a3.Series))
	}
}

func TestA4SweepCoversPaperConstant(t *testing.T) {
	o := fastOptions()
	fig := A4TSLSweep(o)
	found := false
	for _, l := range fig.XLabels {
		if strings.Contains(l, "th0.5/cap4096") {
			found = true
		}
	}
	if !found {
		t.Errorf("A4 sweep does not include the paper's 0.5/4096 point: %v", fig.XLabels)
	}
	for _, v := range fig.Series[0].Values {
		if v <= 0 {
			t.Errorf("non-positive speedup in sweep: %v", v)
		}
	}
}

func TestBwLabel(t *testing.T) {
	if bwLabel(1024) != "1TB/s" || bwLabel(64) != "64GB/s" {
		t.Errorf("bwLabel wrong: %s %s", bwLabel(1024), bwLabel(64))
	}
}

// TestHarnessRunCounts pins how many runs each figure requests at default
// Options, and how many of them are distinct RunSpecs, through a Runner that
// counts content addresses and simulates nothing. The whole cycle's 985 runs
// (661 distinct) are the op count of the figures benchmark workload; FS
// submits ServiceSpecs and O1 simulates nothing, so both make no RunSpec
// run.
func TestHarnessRunCounts(t *testing.T) {
	want := map[string][2]int{ // id: runs, distinct
		"E0": {22, 22}, "F4": {45, 45}, "F7": {18, 18}, "F8": {36, 36},
		"F9": {36, 36}, "F10": {9, 9}, "F15": {54, 54}, "F16": {27, 27},
		"F17": {117, 108}, "F18": {117, 117}, "FT": {270, 270}, "FS": {0, 0},
		"O1": {0, 0}, "BRK": {9, 9}, "A1": {27, 27}, "A2": {27, 27},
		"A3": {27, 27}, "A4": {144, 144},
	}
	var runs int
	var figure map[string]bool
	all := map[string]bool{}
	o := recordingOptions(t, func(h string) {
		runs++
		figure[h] = true
		all[h] = true
	})
	total := 0
	for _, e := range Experiments() {
		runs, figure = 0, map[string]bool{}
		e.Run(o)
		if got := [2]int{runs, len(figure)}; got != want[e.ID] {
			t.Errorf("%s: %d runs, %d distinct; want %d, %d", e.ID, got[0], got[1], want[e.ID][0], want[e.ID][1])
		}
		total += runs
	}
	if total != 985 || len(all) != 661 {
		t.Errorf("whole cycle: %d runs, %d distinct; want 985, 661", total, len(all))
	}
	if n := len(Jobs(Options{}, Experiments())); n != 661 {
		t.Errorf("Jobs over every experiment: %d specs, want the cycle's 661 distinct", n)
	}
}

// recordingOptions returns default (serial) Options whose Runner hands
// each run's content address to record and answers fixed Metrics; the
// ServiceRunner answers empty cells. Nothing is simulated.
func recordingOptions(t *testing.T, record func(hash string)) Options {
	fixed := multigpu.Metrics{
		TotalCycles: 1, Frames: 1, FrameLatencies: []float64{1},
		GPMBusyCycles: []float64{1, 1}, InterGPMBytes: 1,
	}
	return Options{
		Runner: func(rs spec.RunSpec) (multigpu.Metrics, error) {
			h, err := rs.Hash()
			if err != nil {
				t.Error(err)
				return multigpu.Metrics{}, err
			}
			record(h)
			return fixed, nil
		},
		ServiceRunner: emptyCells,
	}
}

// TestJobsAreTheFiguresRuns pins what -dump-spec prints: for every
// experiment, Jobs returns exactly the distinct specs a figure run hands
// its Runner, in first-run order, whatever Parallel the caller asked for.
func TestJobsAreTheFiguresRuns(t *testing.T) {
	for _, e := range Experiments() {
		var order []string
		seen := map[string]bool{}
		o := recordingOptions(t, func(h string) {
			if !seen[h] {
				seen[h] = true
				order = append(order, h)
			}
		})
		e.Run(o)

		o.Parallel = 8
		jobs := Jobs(o, []Experiment{e})
		got := make([]string, len(jobs))
		for i, rs := range jobs {
			h, err := rs.Hash()
			if err != nil {
				t.Fatal(err)
			}
			got[i] = h
		}
		if !slices.Equal(got, order) {
			t.Errorf("%s: Jobs lists %d specs, the figure runs %d distinct (or in another order)", e.ID, len(got), len(order))
		}
	}
}

// TestExperimentsSurviveDegenerateMetrics runs every experiment through a
// Runner whose runs move no inter-GPM byte (a one-GPM template) and a
// ServiceRunner whose cells are empty: each figure prints Inf or NaN where
// it divides by zero, and none panics.
func TestExperimentsSurviveDegenerateMetrics(t *testing.T) {
	local := multigpu.Metrics{
		TotalCycles: 1000, Frames: 2, FrameLatencies: []float64{500, 500},
		GPMBusyCycles: []float64{900},
	}
	o := Options{
		Runner:        func(spec.RunSpec) (multigpu.Metrics, error) { return local, nil },
		ServiceRunner: emptyCells,
	}
	for _, e := range Experiments() {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked: %v", e.ID, r)
				}
			}()
			e.Run(o)
		}()
	}
}
