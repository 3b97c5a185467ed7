package multigpu_test

import (
	"testing"

	"oovr/internal/core"
	"oovr/internal/driver"
	"oovr/internal/mem"
	"oovr/internal/multigpu"
	"oovr/internal/workload"
)

// TestCopiesAreResidencyNotSegments pins GPM-local copies as residency in
// the memory system, not segments: registering AFR's private copies twice
// makes GPM1 hold a copy of every shared segment, each new exactly once
// and none on another GPM; rendering one OO-VR frame, which ships batch
// data to GPMs, registers copies but allocates no segment; and reading a
// copy that was never registered panics.
func TestCopiesAreResidencyNotSegments(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 2, 1)
	s := multigpu.New(multigpu.DefaultOptions(), sc)
	segments := s.Mem.NumSegments()
	shared := mem.SegmentID(len(sc.Textures) + len(sc.VertexCapacities()))
	held := func() (n int) {
		for g := range mem.GPMID(s.NumGPMs()) {
			for id := range mem.SegmentID(segments) {
				if s.Mem.HasCopy(g, id) {
					n++
				}
			}
		}
		return n
	}
	if n := held(); n != 0 {
		t.Fatalf("a fresh system holds %d copies", n)
	}

	s.EnsureLocalCopies(1)
	s.EnsureLocalCopies(1)
	for id := range mem.SegmentID(segments) {
		if got, want := s.Mem.HasCopy(1, id), id < shared; got != want {
			t.Errorf("segment %d: GPM1 holds a copy %v, want %v", id, got, want)
		}
		if id < shared && s.Mem.Copy(id, 1) {
			t.Errorf("segment %d: Copy reports GPM1's copy new after EnsureLocalCopies", id)
		}
	}
	if got := held(); got != int(shared) {
		t.Errorf("EnsureLocalCopies twice registered %d copies, want the %d shared segments once", got, shared)
	}

	before := held()
	driver.NewFrameLoop(s, core.NewOOVR()).RunFrame(&sc.Frames[0])
	if held() == before {
		t.Fatal("the OO-VR frame shipped no copy; the check below would be vacuous")
	}
	if got := s.Mem.NumSegments(); got != segments {
		t.Errorf("copies allocated segments: %d after the frame, %d after New", got, segments)
	}

	defer func() {
		if recover() == nil {
			t.Error("reading an unregistered copy did not panic")
		}
	}()
	fresh := multigpu.New(multigpu.DefaultOptions(), sc)
	fresh.Mem.ReadCopy(2, 0, 0, 1)
}
