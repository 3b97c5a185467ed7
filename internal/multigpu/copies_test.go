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
// and rendering one OO-VR frame, which ships batch data to GPMs, allocate
// no segment; the copying GPM's DRAM grows by the copied bytes exactly
// once; and reading a copy that was never registered panics.
func TestCopiesAreResidencyNotSegments(t *testing.T) {
	sp, _ := workload.ByAbbr("DM3")
	sc := sp.Generate(640, 480, 2, 1)
	s := multigpu.New(multigpu.DefaultOptions(), sc)
	segments := s.Mem.NumSegments()
	totalDRAM := func() (sum int64) {
		for g := 0; g < s.NumGPMs(); g++ {
			sum += s.Mem.DRAMUsed(mem.GPMID(g))
		}
		return sum
	}

	var copied int64
	for _, tex := range sc.Textures {
		copied += tex.Bytes
	}
	for _, vb := range sc.VertexCapacities() {
		copied += vb
	}
	used := s.Mem.DRAMUsed(1)
	s.EnsureLocalCopies(1)
	s.EnsureLocalCopies(1)
	if got := s.Mem.DRAMUsed(1) - used; got != copied {
		t.Errorf("EnsureLocalCopies twice grew GPM1's DRAM by %d bytes, want the copied %d once", got, copied)
	}

	before := totalDRAM()
	driver.NewFrameLoop(s, core.NewOOVR()).RunFrame(&sc.Frames[0])
	if totalDRAM() == before {
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
