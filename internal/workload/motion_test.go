package workload

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// streamDigest drains n frames of a stream into a structural digest: every
// object's index, bounds and fragment mass, bit-exact.
func streamDigest(st *Stream, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		f, ok := st.Next()
		if !ok {
			break
		}
		fmt.Fprintf(h, "frame %d\n", f.Index)
		for _, o := range f.Objects {
			fmt.Fprintf(h, "%d %x %x %x %x %x\n", o.Index,
				o.FragsPerView, o.Bounds.Min.X, o.Bounds.Min.Y, o.Bounds.Max.X, o.Bounds.Max.Y)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestReplayMotionDeterministic pins the satellite guarantee: a stream
// driven by a replayed recorded trace produces a byte-identical frame
// sequence when re-opened with the same seed, and differs from the
// synthetic random-walk stream (the trace is live, not ignored).
func TestReplayMotionDeterministic(t *testing.T) {
	trace, ok := TraceByName(HMDPan)
	if !ok {
		t.Fatal("built-in hmd-pan trace not registered")
	}
	if trace.Len() < 60 {
		t.Fatalf("hmd-pan trace too short: %d frames", trace.Len())
	}
	sp, _ := ByAbbr("DM3")

	open := func() *Stream {
		st := sp.Stream(640, 320, 8, 42)
		st.Motion = trace.Replay()
		return st
	}
	d1 := streamDigest(open(), 8)
	d2 := streamDigest(open(), 8)
	if d1 != d2 {
		t.Fatalf("replayed stream not reproducible:\n  %s\n  %s", d1, d2)
	}

	synth := sp.Stream(640, 320, 8, 42)
	if ds := streamDigest(synth, 8); ds == d1 {
		t.Fatal("trace-driven stream identical to the synthetic walk; Motion hook inert")
	}
}

// TestReplayWraps pins the loop semantics: frames past the end of the
// recording replay it from the start.
func TestReplayWraps(t *testing.T) {
	tr := Trace{Name: "t", DX: []float64{1, 2, 3}, DY: []float64{4, 5, 6}}
	m := tr.Replay()
	for _, c := range []struct {
		fi     int
		dx, dy float64
	}{{1, 1, 4}, {2, 2, 5}, {3, 3, 6}, {4, 1, 4}, {7, 1, 4}} {
		dx, dy := m(c.fi)
		if dx != c.dx || dy != c.dy {
			t.Errorf("frame %d: got (%g,%g), want (%g,%g)", c.fi, dx, dy, c.dx, c.dy)
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	if _, err := ParseTrace("bad", "dx,dy\n1.0\n"); err == nil {
		t.Error("want error for a one-column row")
	}
	if _, err := ParseTrace("bad", "dx,dy\nx,y\n"); err == nil {
		t.Error("want error for non-numeric fields")
	}
	if _, err := ParseTrace("empty", "# nothing\n"); err == nil {
		t.Error("want error for an empty trace")
	}
}
