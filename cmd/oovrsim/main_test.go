package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"oovr/internal/obs"
)

// TestTruncatedTimelineSaysSo pins that a recording whose ring wrapped
// reports how many events it lost, on the -timeline line and in -v's
// occupancy header, and that a complete one prints neither note.
func TestTruncatedTimelineSaysSo(t *testing.T) {
	for _, extra := range []int{0, 10} {
		tl := obs.NewTimeline()
		lane := tl.AddLane("gpm0", "exec", 1)
		for i := range obs.DefaultTimelineCap + extra {
			tl.Span(lane, "s", int64(i), int64(i+1), obs.Arg{}, obs.Arg{})
		}
		var out bytes.Buffer
		if err := writeTimeline(&out, filepath.Join(t.TempDir(), "t.json"), tl); err != nil {
			t.Fatal(err)
		}
		printUtilization(&out, tl)
		// The -timeline line, then the occupancy header.
		for _, line := range strings.SplitN(out.String(), "\n", 3)[:2] {
			if strings.Contains(line, "dropped") != (extra > 0) ||
				extra > 0 && !strings.Contains(line, ", 10 oldest events dropped)") {
				t.Errorf("%d events past the ring: line %q", extra, line)
			}
		}
	}
}
