package spec

import (
	"runtime"
	"testing"
)

// TestColdRunAllocBudget bounds the bytes one cold RunSpec.Run allocates:
// HL2-1280, 12 frames, seed 1, under AFR (a private copy of every texture
// and vertex buffer per GPM), OO-VR (exact, persistent shipped copies)
// and object-level SFR (re-shipped copies). Each budget is the measured
// bytes/op plus 10%. It pins the cold-path cuts: frames streamed through
// one buffer instead of materialized, every access's flow split into one
// reused vector instead of a per-segment cache, copies kept as residency
// bits instead of segments, segments homed at allocation with no slot
// for unplaced bytes, segment-indexed tables sized once, 24-byte segment
// records with per-frame warmth, copy and ship state in bitsets, the scene,
// segment table and plans built at their declared size, and the scene
// prefix (header and frame 0) taken from the process cache that the
// warm-up run fills. A streamed run's bytes do not grow with its frame
// count, so 12 frames make a materialized run stand out.
func TestColdRunAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime changes allocation counts; see race_test.go")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as testing.AllocsPerRun
	for _, tc := range []struct {
		scheduler string
		measured  float64 // B/op, linux/amd64, go1.24
	}{
		{"afr", 139_700},
		{"oovr", 353_900},
		{"object", 201_300},
	} {
		s := RunSpec{Workload: WorkloadRef{Name: "HL2-1280"}, Scheduler: SchedulerRef{Name: tc.scheduler}, Frames: 12}
		if _, err := s.Run(); err != nil { // warm the registries and caches
			t.Fatal(err)
		}
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			s.Run()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f B/op", tc.scheduler, bytes)
		if budget := 1.1 * tc.measured; bytes > budget {
			t.Errorf("%s: cold 12-frame HL2-1280 run allocates %.0f B/op, budget %.0f", tc.scheduler, bytes, budget)
		}
	}
}
